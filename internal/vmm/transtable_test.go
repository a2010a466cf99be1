package vmm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// TestTransTableSurvivesRuns: the persistent translation table must stay
// armed across Run calls — that is the whole point of promoting the
// step-scoped filter to a persistent structure. (Correctness does not depend
// on persistence — the table is exact — so this is a white-box pin of the
// performance property.)
func TestTransTableSurvivesRuns(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = false
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(1), 0)
	r := p.Ranges()[0]

	acc := []trace.Access{{Addr: r.Start}, {Addr: r.Start + 4096}, {Addr: r.Start}}
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})

	c := m.Core(0)
	vpn := mem.PageNum(uint64(r.Start) >> 12)
	s := *c.tt.slot4K(vpn)
	if s.gen != c.tt.gen || s.page != vpn {
		t.Fatalf("slot for %#x not armed after run: slot gen %d page %#x, table gen %d",
			uint64(r.Start), s.gen, uint64(s.page), c.tt.gen)
	}

	// A second run must find it still armed (no end-of-run invalidation).
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
	if s := *c.tt.slot4K(vpn); s.gen != c.tt.gen || s.page != vpn {
		t.Error("slot invalidated between runs; the table must persist")
	}
}

// TestTransTableInvalidatedByRestore: restoring machine state must bump the
// translation-table generation so no slot armed before the restore can serve
// afterwards — the restored mappings may be arbitrarily different from the
// ones the slots mirror. This pins the generation-bump invalidation the
// checkpoint/resume equivalence suites rely on.
func TestTransTableInvalidatedByRestore(t *testing.T) {
	cfg := testConfig()
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(2), 0)
	r := p.Ranges()[0]

	// Capture a pre-promotion checkpoint, with the table armed for the
	// 4K-mapped first page.
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{
		{Addr: r.Start}, {Addr: r.Start + 4096}, {Addr: r.Start},
	})})
	st := m.State()

	c := m.Core(0)
	gen := c.tt.gen
	vpn := mem.PageNum(uint64(r.Start) >> 12)
	if s := *c.tt.slot4K(vpn); s.gen != gen || s.page != vpn {
		t.Fatalf("slot not armed before restore")
	}

	// Promote the region (this itself bumps the generation via the
	// shootdown), re-arm the table with 2M-class translations, then restore
	// the pre-promotion state: every slot armed since the checkpoint is
	// stale — the pages are 4K-mapped again.
	if err := m.Promote2M(p, r.Start); err != nil {
		t.Fatal(err)
	}
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{
		{Addr: r.Start}, {Addr: r.Start + 4096}, {Addr: r.Start},
	})})
	genArmed := c.tt.gen
	if err := m.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if c.tt.gen <= genArmed {
		t.Errorf("restore left table generation at %d (armed at %d); must bump past every armed slot", c.tt.gen, genArmed)
	}
	hpn := mem.PageNum(uint64(r.Start) >> 21)
	if s := *c.tt.slot2M(hpn); s.gen == c.tt.gen {
		t.Error("2M slot armed before restore still validates; stale translations could be served")
	}
	if c.l0Has {
		t.Error("register line survived restore")
	}

	// Behavioral check: the restored machine must now translate through the
	// restored (4K) mappings, matching a machine that never promoted.
	walks := c.TLB.Walks()
	m.Run(&Job{Proc: p, Stream: trace.Slice([]trace.Access{{Addr: r.Start + 2*4096}})})
	if got := c.TLB.Walks(); got != walks+1 {
		t.Errorf("post-restore access to a cold page did %d walks, want 1", got-walks)
	}
}

// TestSteadyStateRunAllocsLivePressure: a live-generated stream (no
// recording) through Machine.Run with the dynamic pressure model active must
// not allocate per access — churn, compaction and watermark demotion all run
// at tick barriers and their state is preallocated or amortized. Only replay
// streams were pinned before; this covers the shape the pressure experiments
// actually run.
func TestSteadyStateRunAllocsLivePressure(t *testing.T) {
	oldAudit := TestForceAudit
	TestForceAudit = false
	defer func() { TestForceAudit = oldAudit }()

	cfg := testConfig()
	cfg.PromotionInterval = 20_000
	cfg.Pressure = DefaultPressureConfig()
	m := NewMachine(cfg, nil)
	p := m.AddProcess("t", testVMA(8), 0)
	r := p.Ranges()[0]

	const accesses = 200_000
	live := func() trace.Stream {
		return trace.Sequential(r.Start, uint64(r.Len()), uint64(mem.Page4K), accesses)
	}
	// Warm: fault pages in, let Run and the pressure model allocate their
	// reusable state.
	m.Run(&Job{Proc: p, Stream: live()})

	avg := testing.AllocsPerRun(5, func() {
		m.Run(&Job{Proc: p, Stream: live()})
	})
	perAccess := avg / float64(accesses)
	if perAccess > 0.001 {
		t.Errorf("live Run under pressure allocates %.5f objects/access (%.0f per run over %d accesses), want ~0",
			perAccess, avg, accesses)
	}
}

// TestTransTableMatchesShadowHierarchy is the machine-level oracle for the
// register line and the translation table: random workloads run through
// Machine.Run segment by segment, and after every segment each core's TLB
// hierarchy must equal, LRU stamps and counters included, a shadow
// hierarchy the test drives through plain Translate, one call per access,
// at the page size p.StateOf reports. The workloads hop between several
// VMAs of two processes that share core 0 at overlapping addresses, run
// some segments as two-thread jobs (the multi-core step), and interleave
// promotions, demotions, translation flushes and a snapshot restore; the
// shadow mirrors each shootdown and the restore. Both kernels run: segFast
// by default, segGeneric under the PTW MLP model.
func TestTransTableMatchesShadowHierarchy(t *testing.T) {
	div4 := tlb.DefaultHierarchyConfig()
	for _, c := range []*tlb.Config{&div4.L1D4K, &div4.L1D2M, &div4.L2} {
		c.Entries /= 4
	}
	for _, tc := range []struct {
		name string
		tlb  tlb.HierarchyConfig
		mlp  int
	}{
		{"table2", tlb.DefaultHierarchyConfig(), 0},
		{"div4", div4, 0},
		{"div4-generic", div4, 2},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := testConfig()
				cfg.Cores = 2
				cfg.TLB = tc.tlb
				cfg.PTWMLPWidth = tc.mlp
				cfg.PTWMLPOverlap = 0.5
				cfg.PromotionInterval = 1 << 40 // no tick inside the test
				runShadowOracle(t, cfg, seed)
			})
		}
	}
}

func runShadowOracle(t *testing.T, cfg Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := NewMachine(cfg, nil)
	const mb = mem.VirtAddr(1 << 20)
	// a's VMAs contain b's, so the two processes share page numbers that
	// are mapped at different sizes once a promotes.
	a := m.AddProcess("a", []mem.Range{{Start: 16 * mb, End: 28 * mb}, {Start: 64 * mb, End: 68 * mb}}, 10)
	b := m.AddProcess("b", []mem.Range{{Start: 16 * mb, End: 22 * mb}, {Start: 64 * mb, End: 66 * mb}}, 13)
	procs := []*Process{a, b}
	shadow := []*tlb.Hierarchy{tlb.NewHierarchy(cfg.TLB), tlb.NewHierarchy(cfg.TLB)}
	shootdown := func(base mem.VirtAddr) {
		for _, h := range shadow {
			h.Shootdown(mem.Range{Start: base, End: base + 2*mb})
		}
	}
	// addr draws an address of p: mostly the next line of one of eight
	// sequential cursors (consecutive accesses hop between L1 ways), else
	// a random page of a hot 64-page window or of the whole footprint.
	var cursors [2][8]mem.VirtAddr
	addr := func(pi int) mem.VirtAddr {
		rs := procs[pi].Ranges()
		r := rs[rng.Intn(len(rs))]
		pages := uint64(r.Len()) >> 12
		switch k := rng.Intn(10); {
		case k < 7:
			c := &cursors[pi][rng.Intn(8)]
			if procs[pi].vmaOf(*c) == nil {
				*c = r.Start + mem.VirtAddr(rng.Uint64()%pages)<<12
			}
			*c += 256
			return *c - 256
		case k < 9:
			return r.Start + mem.VirtAddr(rng.Intn(64))<<12 + mem.VirtAddr(rng.Intn(64))*64
		default:
			return r.Start + mem.VirtAddr(rng.Uint64()%pages)<<12
		}
	}

	type last struct {
		p    *Process
		addr mem.VirtAddr
	}
	var saved *MachineState
	var savedShadow []tlb.HierarchyState
	var savedLast, lastOn [2]last
	restored := false
	hits := uint64(0)
	for seg := 0; seg < 60; seg++ {
		// Between segments: promote, demote or flush a random 2MB region.
		pi := rng.Intn(2)
		p := procs[pi]
		base := mem.PageBase(addr(pi), mem.Page2M)
		switch k := rng.Intn(8); {
		case k < 3:
			if m.Promote2M(p, base) == nil {
				shootdown(base)
			}
		case k < 4:
			if m.Demote2M(p, base) == nil {
				shootdown(base)
			}
		case k < 5:
			m.InvalidateTranslations(p, base)
			shootdown(base)
		}
		switch {
		case seg == 25:
			st := m.State()
			saved = &st
			savedShadow = []tlb.HierarchyState{shadow[0].State(), shadow[1].State()}
			savedLast = lastOn
		case seg == 45 && !restored:
			if err := m.RestoreState(*saved); err != nil {
				t.Fatal(err)
			}
			for i, h := range shadow {
				if err := h.SetState(savedShadow[i]); err != nil {
					t.Fatal(err)
				}
			}
			restored, lastOn = true, savedLast
			// Re-translate each core's last page before the snapshot: the
			// restored TLB's MRU entry, which the table must re-arm at the
			// way that holds it.
			for ci, l := range lastOn {
				if l.p != nil {
					runShadowSegment(t, m, shadow, &Job{Proc: l.p, Cores: []int{ci}},
						[]trace.Access{{Addr: l.addr}, {Addr: l.addr}})
				}
			}
		}

		cores := []int{rng.Intn(2)}
		if rng.Intn(4) == 0 {
			cores = []int{0, 1}
		}
		acc := make([]trace.Access, 100+rng.Intn(900))
		for i := range acc {
			acc[i] = trace.Access{Addr: addr(pi), Thread: rng.Intn(2)}
			if i > 0 && rng.Intn(4) == 0 {
				acc[i].Addr = acc[i-1].Addr // register-line repeats
			}
		}
		hits += runShadowSegment(t, m, shadow, &Job{Proc: p, Cores: cores}, acc)
		for i := range acc {
			ci := cores[acc[i].Thread%len(cores)]
			lastOn[ci] = last{p, acc[i].Addr}
		}
	}
	if hits == 0 {
		t.Fatal("no L1 hits: the workload never exercised the table")
	}
}

// runShadowSegment runs acc as job j on m, replays it through the shadow
// hierarchies, and requires every core to equal its shadow and the
// translation table to name a way that holds each core's register-line
// page. It returns the segment's L1 hits.
func runShadowSegment(t *testing.T, m *Machine, shadow []*tlb.Hierarchy, j *Job, acc []trace.Access) uint64 {
	t.Helper()
	var before uint64
	for _, c := range m.Cores() {
		before += c.TLB.Accesses() - c.TLB.L1Misses()
	}
	j.Stream = trace.Slice(acc)
	m.Run(j)
	for _, a := range acc {
		size, ok := j.Proc.StateOf(a.Addr)
		if !ok {
			t.Fatalf("access %#x of %s unmapped after its segment", uint64(a.Addr), j.Proc.Name)
		}
		si := tlb.SizeIndex(size)
		shadow[j.Cores[a.Thread%len(j.Cores)]].Translate(tlb.PageNumber(a.Addr, si), si)
	}
	var after uint64
	for i, c := range m.Cores() {
		after += c.TLB.Accesses() - c.TLB.L1Misses()
		if got, want := c.TLB.State(), shadow[i].State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("core %d after %d accesses of %s: TLB diverged from the shadow\n got %+v\nwant %+v",
				i, len(acc), j.Proc.Name, got, want)
		}
		checkRegisterLineSlot(t, c)
	}
	return after - before
}

// checkRegisterLineSlot requires the table slot of the core's register-line
// page to be live and to name the L1 way that holds the page: the last
// translation a core made is always one the table can serve.
func checkRegisterLineSlot(t *testing.T, c *Core) {
	t.Helper()
	if !c.l0Has || c.l0SI == 2 {
		return
	}
	page, s, size := c.l0Page4K, *c.tt.slot4K(c.l0Page4K), mem.Page4K
	if c.l0SI == 1 {
		page = c.l0Page4K >> 9
		s, size = *c.tt.slot2M(page), mem.Page2M
	}
	if s.gen != c.tt.gen || s.page != page || s.proc != c.l0Proc {
		t.Fatalf("core %d: register-line page %#x (%v) has no live table slot: %+v (gen %d)", c.ID, uint64(page), size, s, c.tt.gen)
	}
	st := c.TLB.L1(size).State()
	if st.VPNs[s.way] != page || st.Sizes[s.way] != size {
		t.Fatalf("core %d: table slot for page %#x (%v) names way %d, which holds (%#x, %v)",
			c.ID, uint64(page), size, s.way, uint64(st.VPNs[s.way]), st.Sizes[s.way])
	}
}
