package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pccsim/internal/experiments"
	"pccsim/internal/obs"
	"pccsim/internal/workloads"
)

// graphInput is one graph dataset a grid reads.
type graphInput struct {
	dataset workloads.GraphDataset
	sorted  bool
}

// workload is one experiment grid the benchmark times. Its name is both the
// BENCHMARK.json workload name and the experiments.Registry id that
// `pccsim -exp` runs.
type workload struct {
	name string
	// inputs and specs are what the grid builds before simulating; the
	// benchmark builds them up front as its set-up.
	inputs []graphInput
	specs  func(experiments.Options) []workloads.Spec
	// cells is the traced subset: at least one cell per policy and per
	// pressure, tenant or NUMA configuration of the grid.
	cells func(experiments.Options) []cell
}

var benchWorkloads = []workload{
	{
		name:   "fig5-graph",
		inputs: []graphInput{{workloads.DatasetKron, false}, {workloads.DatasetKron, true}},
		specs: func(o experiments.Options) []workloads.Spec {
			var specs []workloads.Spec
			for _, app := range workloads.GraphAppNames() {
				for _, sorted := range []bool{false, true} {
					specs = append(specs, graphSpec(o, app, sorted))
				}
			}
			return specs
		},
		cells: func(o experiments.Options) []cell {
			budget := o.Budgets[len(o.Budgets)/2]
			return []cell{
				jobCell{spec: graphSpec(o, "BFS", false), policy: pol4KB}.cell(o),
				jobCell{spec: graphSpec(o, "PR", true), policy: polPCC, budget: budget}.cell(o),
				jobCell{spec: graphSpec(o, "SSSP", false), policy: polHawkEye, budget: budget}.cell(o),
				jobCell{spec: graphSpec(o, "BFS", true), policy: polIdeal}.cell(o),
				jobCell{spec: graphSpec(o, "PR", false), policy: polLinux, frag: 0.9}.cell(o),
			}
		},
	},
	{
		name:   "figfrag",
		inputs: []graphInput{{workloads.DatasetKron, false}},
		specs: func(o experiments.Options) []workloads.Spec {
			return []workloads.Spec{graphSpec(o, "PR", false)}
		},
		cells: func(o experiments.Options) []cell {
			o = fragOptions(o)
			frames := int(o.PhysBytes / 4096)
			pr := graphSpec(o, "PR", false)
			// The six (churn, compaction) points of the grid, each once,
			// rotating the three policies, plus the shared 4KB baseline.
			cells := []cell{jobCell{spec: pr, policy: pol4KB}.cell(o)}
			policies := []string{polHawkEye, polLinux, polPCC}
			i := 0
			for _, compact := range []int{0, frames / 16} {
				for _, churn := range []int{0, frames / 16, frames / 4} {
					cells = append(cells, jobCell{spec: pr, policy: policies[i%3], frag: 0.9,
						pressure: fragPressure(o, churn, compact)}.cell(o))
					i++
				}
			}
			return cells
		},
	},
	{
		name: "figtenant",
		specs: func(o experiments.Options) []workloads.Spec {
			specs := make([]workloads.Spec, len(tenantApps))
			for i := range specs {
				specs[i] = tenantSpec(o, i)
			}
			return specs
		},
		cells: func(o experiments.Options) []cell {
			return []cell{
				tenantCell{tenants: 2, skew: "even"}.cell(o),
				tenantCell{tenants: 4, skew: "skewed", churn: true}.cell(o),
				tenantCell{tenants: 2, skew: "even", churn: true, numa: "interleave"}.cell(o),
				tenantCell{tenants: 2, skew: "even", churn: true, numa: "local-first"}.cell(o),
			}
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func graphSpec(o experiments.Options, app string, sorted bool) workloads.Spec {
	return workloads.Spec{Name: app, Dataset: workloads.DatasetKron, Sorted: sorted, Scale: o.Scale, Threads: 1}
}

// benchOptions is the grid configuration every workload runs at: the
// -quick configuration at twice the graph vertices and four times the
// synthetic stream length, so that one grid takes seconds rather than one or
// two and its wall time is steadier. Workers is the host's core count and
// machines run serially, with the default trace cache.
func benchOptions(out io.Writer, seed int64) experiments.Options {
	o := experiments.QuickOptions(out)
	o.Scale = 15
	o.SynthAccesses = 1_600_000
	o.Seed = seed
	o.Workers = runtime.NumCPU()
	o.MachineShards = 1
	return o
}

// setUp builds the grid's inputs and workloads in this process, as the grid
// would on first use, and returns the whole set-up time and the part of it
// spent constructing inputs: graph datasets, or the synthetic app models of
// a grid without graphs.
func setUp(w workload, o experiments.Options) (setup, inputs time.Duration, err error) {
	start := time.Now()
	for _, in := range w.inputs {
		if _, err := workloads.BuildDataset(in.dataset, o.Scale, in.sorted); err != nil {
			return 0, 0, err
		}
	}
	inputs = time.Since(start)
	for _, s := range w.specs(o) {
		if _, err := workloads.Build(s); err != nil {
			return 0, 0, err
		}
	}
	setup = time.Since(start)
	if len(w.inputs) == 0 {
		inputs = setup
	}
	return setup, inputs, nil
}

// gridReport is what one child process reports about its grid.
type gridReport struct {
	Digest   string  `json:"digest"`
	Error    string  `json:"error,omitempty"`
	WallS    float64 `json:"wall_s"`
	SetupS   float64 `json:"setup_s"`
	InputsS  float64 `json:"inputs_s"`
	PeakRSSK float64 `json:"peak_rss_kb"`
	Accesses float64 `json:"accesses,omitempty"` // with an Obs registry only
	// Trace children only.
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted,omitempty"`
	Failed    int                `json:"failed,omitempty"`
}

// runGrid sets up and runs one grid in this process, exactly as
// `pccsim -exp <name>` runs it, hashing the rendered report. With audit the
// invariant auditor is armed; with reg the drivers' counters are collected.
func runGrid(w workload, seed int64, audit bool, reg *obs.Registry) (rep gridReport, cpu time.Duration) {
	h := sha256.New()
	o := benchOptions(h, seed)
	o.Audit = audit
	o.Obs = reg
	setup, inputs, err := setUp(w, o)
	if err != nil {
		rep.Error = "set-up: " + err.Error()
		return rep, 0
	}
	rep.SetupS, rep.InputsS = setup.Seconds(), inputs.Seconds()
	cpu0 := cpuTime()
	start := time.Now()
	err = runExperiment(w.name, o)
	rep.WallS = time.Since(start).Seconds()
	cpu = cpuTime() - cpu0
	if err != nil {
		rep.Error = err.Error()
		return rep, cpu
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rep.PeakRSSK = peakRSSKB()
	if reg != nil {
		rep.Accesses = reg.Snapshot()["machine.accesses"]
	}
	return rep, cpu
}

// runExperiment runs one grid, turning an invariant violation (the auditor
// panics) or any other panic into an error.
func runExperiment(name string, o experiments.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return experiments.Run(name, o)
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB is this process's VmHWM, in KiB.
func peakRSSKB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v
		}
	}
	return 0
}
