package main

import (
	"fmt"
	"time"

	"pccsim/internal/experiments"
	"pccsim/internal/obs"
)

// metric is one benchmark metric, as BENCHMARK.json lists it. For a
// per-layer metric, moves names the end-to-end metric it should move and on
// names the workloads on which it should.
type metric struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a user of the simulator sees, from runs without
// tracing. Simulated statistics are not among them: the output check pins
// them exactly.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "maccess_per_s", unit: "Maccess/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

const (
	allThree   = "fig5-graph, figfrag, figtenant"
	stragglers = "figfrag, figtenant"
)

// perLayer are the traced run's metrics, named module.metric. Counters come
// from the drivers' Options.Obs hook over the whole grid; host times per
// layer come from the spans of the rebuilt cell subset. Simulated counters
// are pinned by the output check, so for them better only records the
// direction a user of the simulated machine would prefer.
var perLayer = []metric{
	{"experiments.cells", "count", "lower", "wall_s", allThree},
	{"experiments.cell_busy_s", "s", "lower", "wall_s", allThree},
	{"experiments.cell_max_s", "s", "lower", "wall_s", stragglers},
	{"experiments.pool_util", "ratio", "higher", "wall_s", stragglers},
	{"experiments.cpu_s", "s", "lower", "wall_s", allThree},
	{"experiments.tracecache_mb", "MiB", "lower", "peak_rss_mb", allThree},
	{"experiments.trace_overhead", "ratio", "lower", "none (tracing cost)", allThree},
	{"experiments.fail_frac", "ratio", "lower", "none (output check)", allThree},
	{"workloads.dataset_build_s", "s", "lower", "setup_s", allThree},
	{"workloads.stream_gen_ns_per_access", "ns/access", "lower", "wall_s", allThree},
	{"trace.decode_ns_per_access", "ns/access", "lower", "wall_s", "fig5-graph"},
	{"trace.record_ns_per_access", "ns/access", "lower", "wall_s", allThree},
	{"trace.bytes_per_access", "B/access", "lower", "peak_rss_mb", allThree},
	{"vmm.accesses", "count", "higher", "maccess_per_s", allThree},
	{"vmm.faults", "count", "lower", "wall_s", allThree},
	{"vmm.pressure_demotions", "count", "lower", "wall_s", "figfrag"},
	{"vmm.lifecycle_events", "count", "lower", "wall_s", "figtenant"},
	{"vmm.promotion_fail_frac", "ratio", "lower", "wall_s", "figfrag"},
	{"vmm.run_self_ns_per_access", "ns/access", "lower", "wall_s", allThree},
	{"tlb.l1_miss_rate", "ratio", "lower", "wall_s", "fig5-graph"},
	{"tlb.l2_hit_rate", "ratio", "higher", "wall_s", "fig5-graph"},
	{"tlb.invalidates", "count", "lower", "wall_s", "fig5-graph, figfrag"},
	{"ptw.walk_rate", "ratio", "lower", "wall_s", "figtenant"},
	{"ptw.pwc_hit_rate", "ratio", "higher", "wall_s", "figtenant"},
	{"ptw.levels_per_walk", "count", "lower", "wall_s", "figtenant"},
	{"pcc.lookups", "count", "lower", "wall_s", "figtenant"},
	{"pcc.inserts", "count", "lower", "wall_s", "figtenant"},
	{"pcc.evictions", "count", "lower", "wall_s", "figtenant"},
	{"pcc.dumps", "count", "lower", "wall_s", "figtenant"},
	{"physmem.churn_frames", "count", "lower", "wall_s", "figfrag"},
	{"physmem.frames_migrated", "count", "lower", "wall_s", "figfrag"},
	{"physmem.huge_alloc_fail_frac", "ratio", "lower", "wall_s", "figfrag"},
	{"ospolicy.ticks", "count", "lower", "wall_s", "figfrag"},
	{"ospolicy.tick_s", "s", "lower", "wall_s", "figfrag"},
	{"ospolicy.tick_us", "us", "lower", "wall_s", "figfrag"},
	{"ospolicy.fault_s", "s", "lower", "wall_s", "figfrag"},
	{"ospolicy.promoted_2m", "count", "higher", "wall_s", "figfrag"},
}

// spanTotals sums a subset's spans by what the per-layer metrics need.
type spanTotals struct {
	genNS, recordSelfNS, decodeNS, runSelfNS, tickNS, faultNS int64
	ticks                                                     int
}

func sumSpans(spans []span) spanTotals {
	var t spanTotals
	self := selfNS(spans)
	for i, s := range spans {
		d := s.End - s.Start
		switch s.Name {
		case spanGen:
			t.genNS += d
		case spanRecord:
			t.recordSelfNS += self[i]
		case spanDecode:
			t.decodeNS += d
		case spanRun:
			t.runSelfNS += self[i]
		case spanTick:
			t.tickNS += d
			t.ticks++
		case spanFault:
			t.faultNS += d
		}
	}
	return t
}

// traceRun is one traced child's raw measurements.
type traceRun struct {
	snap       obs.Snapshot // grid counters
	grid       gridReport
	cpu        time.Duration
	workers    int
	cacheBytes int64
	spans      spanTotals
	recorded   uint64 // accesses recorded by the subset
	recBytes   int64
	simulated  uint64 // accesses the subset simulated
	traced     time.Duration
	untraced   time.Duration
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives every per-layer metric except experiments.fail_frac,
// which the parent computes over all of its runs.
func layerValues(r traceRun) map[string]float64 {
	s := r.snap
	l2 := s["tlb.l2.hits"] + s["tlb.l2.misses"]
	promos := s["proc.promotions.2m"] + s["proc.promotions.1g"]
	hugeTries := s["physmem.huge.allocs"] + s["physmem.huge.alloc_failures"]
	rec, sim := float64(r.recorded), float64(r.simulated)
	return map[string]float64{
		"experiments.cells":          s["pool.tasks.done"],
		"experiments.cell_busy_s":    s["pool.task.seconds.total"],
		"experiments.cell_max_s":     s["pool.task.seconds.max"],
		"experiments.pool_util":      ratio(s["pool.task.seconds.total"], r.grid.WallS*float64(r.workers)),
		"experiments.cpu_s":          r.cpu.Seconds(),
		"experiments.tracecache_mb":  float64(r.cacheBytes) / (1 << 20),
		"experiments.trace_overhead": ratio(r.traced.Seconds(), r.untraced.Seconds()),

		"workloads.dataset_build_s":          r.grid.InputsS,
		"workloads.stream_gen_ns_per_access": ratio(float64(r.spans.genNS), rec),

		"trace.decode_ns_per_access": ratio(float64(r.spans.decodeNS), sim),
		"trace.record_ns_per_access": ratio(float64(r.spans.recordSelfNS), rec),
		"trace.bytes_per_access":     ratio(float64(r.recBytes), rec),

		"vmm.accesses":               s["machine.accesses"],
		"vmm.faults":                 s["proc.faults"],
		"vmm.pressure_demotions":     s["machine.pressure_demotions"],
		"vmm.lifecycle_events":       s["machine.lifecycle.spawns"] + s["machine.lifecycle.exits"] + s["machine.lifecycle.execs"],
		"vmm.promotion_fail_frac":    ratio(s["machine.promotion_failures"], s["machine.promotion_failures"]+promos),
		"vmm.run_self_ns_per_access": ratio(float64(r.spans.runSelfNS), sim),

		"tlb.l1_miss_rate": ratio(l2, s["tlb.accesses"]),
		"tlb.l2_hit_rate":  ratio(s["tlb.l2.hits"], l2),
		"tlb.invalidates": s["tlb.l1d4k.invalidates"] + s["tlb.l1d2m.invalidates"] +
			s["tlb.l1d1g.invalidates"] + s["tlb.l2.invalidates"],

		"ptw.walk_rate":       ratio(s["ptw.walks"], s["machine.accesses"]),
		"ptw.pwc_hit_rate":    ratio(s["ptw.pwc.hits"], s["ptw.pwc.lookups"]),
		"ptw.levels_per_walk": ratio(s["ptw.levels_read"], s["ptw.walks"]),

		"pcc.lookups":   s["pcc2m.lookups"],
		"pcc.inserts":   s["pcc2m.inserts"],
		"pcc.evictions": s["pcc2m.evictions"],
		"pcc.dumps":     s["pcc2m.dumps"],

		"physmem.churn_frames":         s["physmem.churn.alloc_frames"],
		"physmem.frames_migrated":      s["physmem.frames_migrated"] + s["physmem.daemon.frames_migrated"],
		"physmem.huge_alloc_fail_frac": ratio(s["physmem.huge.alloc_failures"], hugeTries),

		"ospolicy.ticks":       s["ospolicy.ticks"],
		"ospolicy.tick_s":      float64(r.spans.tickNS) / 1e9,
		"ospolicy.tick_us":     ratio(float64(r.spans.tickNS)/1e3, float64(r.spans.ticks)),
		"ospolicy.fault_s":     float64(r.spans.faultNS) / 1e9,
		"ospolicy.promoted_2m": s["ospolicy.promoted.2m"],
	}
}

// runTraced is a trace child's work: the grid once with the drivers'
// counters on, then every cell of the subset twice, untraced and traced in
// alternating order. A traced cell whose RunResult, Metrics() or
// PromotionLog() differs from its untraced twin is a failure.
func runTraced(w workload, seed int64) (gridReport, []string, []span) {
	reg := obs.NewRegistry()
	rep, cpu := runGrid(w, seed, false, reg)
	r := traceRun{snap: reg.Snapshot(), grid: rep, cpu: cpu}
	o := benchOptions(nil, seed)
	r.workers = o.Workers
	_, r.cacheBytes = experiments.TraceCacheStats()
	rep.Attempted = 1
	if rep.Error != "" {
		rep.Failed = 1
	}

	rec := newRecorder()
	var names []string
	for i, c := range w.cells(o) {
		names = append(names, c.name)
		rec.cell = i
		rep.Attempted++
		run := func(trace bool) (cellResult, error) {
			var cr *recorder
			sum := &r.untraced
			if trace {
				cr, sum = rec, &r.traced
			}
			start := time.Now()
			res, err := runCell(c, cr)
			*sum += time.Since(start)
			return res, err
		}
		var plain, traced cellResult
		var errP, errT error
		if i%2 == 0 {
			plain, errP = run(false)
			traced, errT = run(true)
		} else {
			traced, errT = run(true)
			plain, errP = run(false)
		}
		switch {
		case errP != nil || errT != nil:
			rep.Failed++
			rep.Error += fmt.Sprintf("%s: untraced %v, traced %v; ", c.name, errP, errT)
		case !plain.equal(traced):
			rep.Failed++
			rep.Error += c.name + ": traced result differs from untraced; "
		}
		r.recorded += traced.accesses
		r.recBytes += traced.bytes
		r.simulated += traced.Res.Accesses
	}
	r.spans = sumSpans(rec.spans)
	rep.Layers = layerValues(r)
	return rep, names, rec.spans
}
