package main

import (
	"fmt"
	"reflect"

	"pccsim/internal/experiments"
	"pccsim/internal/obs"
	"pccsim/internal/ospolicy"
	"pccsim/internal/physmem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// cell is one simulation of a workload's grid, rebuilt from public calls the
// way cmd/pccbench builds one, so that it can run with timing wrappers. The
// configurations mirror the experiment drivers' cells at the same Options.
type cell struct {
	name string
	// build constructs the machine and its jobs, adding the recordings it
	// makes to out. With a recorder it installs the timing wrappers and
	// records setup and record spans.
	build func(rec *recorder, out *cellResult) (*vmm.Machine, []*vmm.Job, error)
}

// cellResult is everything a cell's simulation produces that must not
// depend on whether it was traced.
type cellResult struct {
	Res      vmm.RunResult
	Metrics  obs.Snapshot
	Log      []vmm.PromotionEvent
	accesses uint64 // accesses recorded into the replayed streams
	bytes    int64  // encoded size of those recordings
}

func (a cellResult) equal(b cellResult) bool {
	return reflect.DeepEqual(a.Res, b.Res) && reflect.DeepEqual(a.Metrics, b.Metrics) &&
		reflect.DeepEqual(a.Log, b.Log)
}

// runCell simulates c once; rec == nil runs it untraced.
func runCell(c cell, rec *recorder) (cellResult, error) {
	root := -1
	if rec != nil {
		root = rec.begin(spanCell)
	}
	var out cellResult
	m, jobs, err := c.build(rec, &out)
	if err != nil {
		return cellResult{}, fmt.Errorf("cell %s: %w", c.name, err)
	}
	run := -1
	if rec != nil {
		run = rec.begin(spanRun)
	}
	out.Res = m.Run(jobs...)
	if rec != nil {
		rec.end(run)
		rec.end(root)
	}
	out.Metrics = m.Metrics()
	out.Log = m.PromotionLog()
	return out, nil
}

// recordStream records wl's stream and returns a replay of it, as the
// experiments' trace cache serves one. Traced, the recording is a "record"
// span with "gen" children and the replay reports "decode" spans.
func recordStream(wl workloads.Workload, rec *recorder, out *cellResult) trace.Stream {
	src := wl.Stream()
	defer workloads.CloseStream(src)
	var r *trace.BlockRecording
	if rec == nil {
		r = trace.RecordBlocks(src, 0)
	} else {
		id := rec.begin(spanRecord)
		r = trace.RecordBlocks(newGenStream(src, rec), 0)
		rec.end(id)
	}
	out.accesses += r.Accesses()
	out.bytes += int64(r.Size())
	if rec == nil {
		return r.Replay()
	}
	return &decodeStream{bs: r.Replay(), rec: rec}
}

// baseConfig is the machine configuration every grid cell starts from, as
// experiments.Options derives it.
func baseConfig(o experiments.Options, cores int) vmm.Config {
	cfg := vmm.DefaultConfig()
	cfg.Cores = cores
	if d := o.TLBDivisor; d > 1 {
		for _, c := range []*tlb.Config{&cfg.TLB.L1D4K, &cfg.TLB.L1D2M, &cfg.TLB.L1D1G, &cfg.TLB.L2} {
			c.Entries /= d
			if c.Entries < c.Ways {
				c.Entries = c.Ways
			}
		}
	}
	cfg.Phys = physmem.Config{TotalBytes: o.PhysBytes, MovableFillRatio: 0.5}
	cfg.Seed = o.Seed
	cfg.PromotionInterval = o.Interval
	cfg.Shards = o.MachineShards
	return cfg
}

// Policy names, as the experiments' reports print them.
const (
	pol4KB     = "4KB"
	polIdeal   = "THP-ideal"
	polPCC     = "PCC"
	polHawkEye = "HawkEye"
	polLinux   = "Linux-THP"
)

func newPolicy(kind string) (vmm.Policy, *ospolicy.PCCEngine) {
	switch kind {
	case pol4KB:
		return ospolicy.Baseline{}, nil
	case polIdeal:
		return ospolicy.AllHuge{}, nil
	case polPCC:
		e := ospolicy.NewPCCEngine(ospolicy.DefaultPCCEngineConfig())
		return e, e
	case polHawkEye:
		return ospolicy.NewHawkEye(ospolicy.DefaultHawkEyeConfig()), nil
	case polLinux:
		return ospolicy.NewLinuxTHP(ospolicy.DefaultLinuxTHPConfig()), nil
	}
	panic("benchgrid: unknown policy " + kind)
}

// policyFor builds the named policy, behind the timing wrapper when traced.
func policyFor(kind string, rec *recorder) (vmm.Policy, *ospolicy.PCCEngine, error) {
	p, engine := newPolicy(kind)
	if rec == nil {
		return p, engine, nil
	}
	w, err := wrapPolicy(p, rec)
	return w, engine, err
}

// jobCell is a single-core cell: one workload under one policy, with an
// optional budget (percent of footprint), boot fragmentation and pressure.
type jobCell struct {
	spec     workloads.Spec
	policy   string
	budget   float64
	frag     float64
	pressure vmm.PressureConfig
}

func (jc jobCell) cell(o experiments.Options) cell {
	name := fmt.Sprintf("%s/%s/sorted=%v/%s@%g%%/frag%g", jc.spec.Name, jc.spec.Dataset, jc.spec.Sorted,
		jc.policy, jc.budget, jc.frag)
	if jc.pressure.Enable {
		name += fmt.Sprintf("/churn%d/compact%d", jc.pressure.ChurnAllocFrames, jc.pressure.CompactBudgetFrames)
	}
	return cell{name: name, build: func(rec *recorder, out *cellResult) (*vmm.Machine, []*vmm.Job, error) {
		setup := -1
		if rec != nil {
			setup = rec.begin(spanSetup)
		}
		wl, err := workloads.Build(jc.spec)
		if err != nil {
			return nil, nil, err
		}
		cfg := baseConfig(o, 1)
		cfg.FragFrac = jc.frag
		cfg.EnablePCC = jc.policy == polPCC
		cfg.Pressure = jc.pressure
		policy, engine, err := policyFor(jc.policy, rec)
		if err != nil {
			return nil, nil, err
		}
		m := vmm.NewMachine(cfg, policy)
		p := m.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
		if jc.budget > 0 && jc.budget < 100 {
			p.MaxHugeBytes = uint64(jc.budget / 100 * float64(wl.Footprint()))
		}
		if engine != nil {
			engine.Bind(0, p)
		}
		if rec != nil {
			rec.end(setup)
		}
		return m, []*vmm.Job{{Proc: p, Stream: recordStream(wl, rec, out), Cores: []int{0}}}, nil
	}}
}

// tenantApps are figtenant's co-located workloads, in tenant order.
var tenantApps = []string{"mcf", "canneal", "omnetpp", "xalancbmk"}

// tenantCell is one figtenant machine: tenants on one core each under the
// PCC engine, with per-tenant quotas of a scarce machine-wide budget,
// optional lifecycle churn and optional 2-node NUMA placement.
type tenantCell struct {
	tenants int
	skew    string // "even" or "skewed"
	churn   bool
	numa    string // "", "interleave" or "local-first"
}

// shares splits the machine-wide budget: evenly, or 70% to the first tenant
// and the rest evenly.
func (tc tenantCell) shares() []float64 {
	out := make([]float64, tc.tenants)
	for i := range out {
		switch {
		case tc.skew != "skewed":
			out[i] = 1 / float64(tc.tenants)
		case i == 0:
			out[i] = 0.7
		default:
			out[i] = 0.3 / float64(tc.tenants-1)
		}
	}
	return out
}

func (tc tenantCell) cell(o experiments.Options) cell {
	numa := tc.numa
	if numa == "" {
		numa = "none"
	}
	name := fmt.Sprintf("figtenant/t%d/%s/churn-%v/numa-%s", tc.tenants, tc.skew, tc.churn, numa)
	return cell{name: name, build: func(rec *recorder, out *cellResult) (*vmm.Machine, []*vmm.Job, error) {
		setup := -1
		if rec != nil {
			setup = rec.begin(spanSetup)
		}
		wls := make([]workloads.Workload, tc.tenants)
		var combined uint64
		for i := range wls {
			wl, err := workloads.Build(tenantSpec(o, i))
			if err != nil {
				return nil, nil, err
			}
			wls[i] = wl
			combined += wl.Footprint()
		}
		shares := tc.shares()
		// A quarter of the combined footprint, floored so that the smallest
		// share still resolves to two 2MB pages.
		total := combined / 4
		minShare := shares[0]
		for _, s := range shares {
			minShare = min(minShare, s)
		}
		if float64(total)*minShare < float64(4<<20) {
			total = uint64(float64(4<<20)/minShare) + 2<<20
		}

		cfg := baseConfig(o, tc.tenants)
		cfg.EnablePCC = true
		cfg.MaxHugeBytesTotal = total
		if tc.churn {
			lc := vmm.DefaultLifecycleConfig()
			lc.MaxHugeBytes = 4 << 20
			lc.HugeRegions = 2
			cfg.Lifecycle = lc
		}
		switch tc.numa {
		case "interleave":
			cfg.NUMA = vmm.DefaultNUMAConfig()
			cfg.NUMA.Policy = vmm.NUMAInterleave
		case "local-first":
			cfg.NUMA = vmm.DefaultNUMAConfig()
			cfg.NUMA.Policy = vmm.NUMALocalFirst
			cfg.NUMA.LocalShare = 0.5
		}
		policy, engine, err := policyFor(polPCC, rec)
		if err != nil {
			return nil, nil, err
		}
		m := vmm.NewMachine(cfg, policy)
		procs := make([]*vmm.Process, tc.tenants)
		for i, wl := range wls {
			t := vmm.TenantConfig{
				Name:      fmt.Sprintf("tenant%d-%s", i, wl.Name()),
				Ranges:    wl.Ranges(),
				BaseCPA:   wl.BaseCPA(),
				HugeShare: shares[i],
			}
			if tc.numa != "" {
				t.HomeNode = i % cfg.NUMA.Nodes
				if tc.numa == "local-first" && i == 0 {
					t.MemPolicy = vmm.VMAMemPolicy{Mode: vmm.MemPolicyBind, Nodes: []int{t.HomeNode}}
				} else if tc.numa == "local-first" && i == 1 {
					t.MemPolicy = vmm.VMAMemPolicy{Mode: vmm.MemPolicyPreferred, Nodes: []int{(t.HomeNode + 1) % cfg.NUMA.Nodes}}
				}
			}
			p, err := m.AddTenant(t)
			if err != nil {
				return nil, nil, err
			}
			engine.Bind(i, p)
			procs[i] = p
		}
		if rec != nil {
			rec.end(setup)
		}
		jobs := make([]*vmm.Job, tc.tenants)
		for i, wl := range wls {
			jobs[i] = &vmm.Job{Proc: procs[i], Stream: recordStream(wl, rec, out), Cores: []int{i}}
		}
		return m, jobs, nil
	}}
}

// tenantSpec is the workload spec of figtenant's tenant i.
func tenantSpec(o experiments.Options, i int) workloads.Spec {
	return workloads.Spec{Name: tenantApps[i%len(tenantApps)], SizeScale: o.SynthSizeScale, Accesses: o.SynthAccesses}
}

// fragOptions applies FigFrag's own adjustments to the grid options: a
// sixteenth of the physical memory and half the tick.
func fragOptions(o experiments.Options) experiments.Options {
	o.PhysBytes /= 16
	o.Interval /= 2
	return o
}

// fragPressure is FigFrag's pressure configuration for one churn rate and
// compaction budget.
func fragPressure(o experiments.Options, churn, compact int) vmm.PressureConfig {
	totalFrames := int(o.PhysBytes / 4096)
	pc := vmm.PressureConfig{
		Enable:                true,
		CompactBudgetFrames:   compact,
		DemoteWatermarkBlocks: totalFrames / 512 / 4,
		MaxDemotionsPerTick:   2,
	}
	if churn > 0 {
		pc.ChurnAllocFrames = churn
		pc.ChurnFreeFrames = churn / 2
		pc.ChurnPinnedFrac = 0.05
	}
	return pc
}
