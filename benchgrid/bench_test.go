package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"pccsim/internal/experiments"
	"pccsim/internal/mem"
	"pccsim/internal/vmm"
)

// testOptions runs the subsets at the -quick scale to keep the test short;
// every trace run checks the same equivalence at the benchmark's scale.
func testOptions() experiments.Options {
	o := experiments.QuickOptions(io.Discard)
	o.MachineShards = 1
	return o
}

func TestTracedCellsMatchUntraced(t *testing.T) {
	for _, w := range benchWorkloads {
		for i, c := range w.cells(testOptions()) {
			plain, err := runCell(c, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			rec := newRecorder()
			rec.cell = i
			traced, err := runCell(c, rec)
			if err != nil {
				t.Fatalf("%s traced: %v", c.name, err)
			}
			if !plain.equal(traced) || plain.accesses != traced.accesses {
				t.Errorf("%s: traced RunResult, Metrics() or PromotionLog() differs from the untraced run", c.name)
			}
			checkSpans(t, c.name, rec.spans)
		}
	}
}

// checkSpans requires one closed cell root with setup, record and run
// children, gen spans under record and decode spans under run.
func checkSpans(t *testing.T, name string, spans []span) {
	t.Helper()
	parentName := func(s span) string {
		if s.Parent < 0 {
			return ""
		}
		return spans[s.Parent].Name
	}
	want := map[string]string{
		spanCell: "", spanSetup: spanCell, spanRecord: spanCell, spanRun: spanCell,
		spanGen: spanRecord, spanDecode: spanRun, spanTick: spanRun, spanFault: spanRun,
	}
	seen := map[string]int{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%s) is not closed", name, s.ID, s.Name)
		}
		if p, ok := want[s.Name]; !ok || parentName(s) != p {
			t.Fatalf("%s: span %s under %q", name, s.Name, parentName(s))
		}
		seen[s.Name]++
	}
	for _, n := range []string{spanCell, spanSetup, spanRecord, spanGen, spanRun, spanDecode} {
		if seen[n] == 0 {
			t.Errorf("%s: no %s span", name, n)
		}
	}
	if seen[spanCell] != 1 {
		t.Errorf("%s: %d cell roots, want 1", name, seen[spanCell])
	}
}

func TestPolicyWrapperKeepsOptionalInterfaces(t *testing.T) {
	for _, kind := range []string{pol4KB, polIdeal, polPCC, polHawkEye, polLinux} {
		p, _ := newPolicy(kind)
		w, err := wrapPolicy(p, newRecorder())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got, want := policyCaps(w), policyCaps(p); got != want {
			t.Errorf("%s: wrapper interfaces %06b, policy %06b", kind, got, want)
		}
		if w.Name() != p.Name() {
			t.Errorf("%s: wrapper name %q, policy %q", kind, w.Name(), p.Name())
		}
	}
	if _, err := wrapPolicy(auditOnly{}, newRecorder()); err == nil {
		t.Error("a policy with an interface set no wrapper covers was wrapped without error")
	}
}

// auditOnly implements an optional-interface set no repository policy has.
type auditOnly struct{}

func (auditOnly) Name() string                                                  { return "audit-only" }
func (auditOnly) OnFault(*vmm.Machine, *vmm.Process, mem.VirtAddr) mem.PageSize { return mem.Page4K }
func (auditOnly) Tick(*vmm.Machine)                                             {}
func (auditOnly) AuditPolicy(*vmm.Machine) []string                             { return nil }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 40, End: 90},
		{ID: 3, Parent: 2, Start: 50, End: 60},
	}
	got := selfNS(spans)
	want := []int64{30, 20, 40, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{4.2}, [3]float64{4.2, 4.2, 4.2}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metrics in step with what the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(benchWorkloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, benchWorkloads[i].name)
		}
	}
	for _, set := range []struct {
		json []struct{ Name, Unit, Better string }
		prog []metric
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(set.json) != len(set.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics where the program has %d", len(set.json), len(set.prog))
		}
		for i, m := range set.json {
			p := set.prog[i]
			if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("metric %d: BENCHMARK.json %v, program %s/%s/%s", i, m, p.name, p.unit, p.better)
			}
		}
	}
}

func TestDigestsParse(t *testing.T) {
	refs, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range benchWorkloads {
		for seed, ref := range refs[w.name] {
			if len(ref.Digest) != 64 || ref.Accesses <= 0 {
				t.Errorf("%s seed %s: bad reference %+v", w.name, seed, ref)
			}
		}
	}
}
