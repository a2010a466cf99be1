// Command pccbench runs a single custom simulation configuration and prints
// the raw result — the sweep utility for exploring configurations beyond the
// paper's figures.
//
//	pccbench -app PR -policy pcc -budget 4 -frag 0.5
//	pccbench -app BFS -policy linux -frag 0.9 -threads 4
//	pccbench -app canneal -policy hawkeye
//	pccbench -app PR -policy pcc -frag 0.9 -churn 2048 -compact 512 -demote-wm 8
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"pccsim/internal/experiments"
	"pccsim/internal/mem"
	"pccsim/internal/obs"
	"pccsim/internal/ospolicy"
	"pccsim/internal/physmem"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

func main() {
	var (
		app        = flag.String("app", "BFS", "workload name")
		dataset    = flag.String("dataset", "kron", "graph dataset (kron|social|web)")
		scale      = flag.Int("scale", 0, "graph scale")
		sorted     = flag.Bool("sorted", false, "degree-based grouping")
		policyName = flag.String("policy", "pcc", "base|ideal|pcc|pcc-rr|hawkeye|linux")
		budget     = flag.Float64("budget", 0, "huge budget, % of footprint (0 = unlimited)")
		frag       = flag.Float64("frag", 0, "fragmented fraction of physical memory")
		threads    = flag.Int("threads", 1, "simulated cores")
		interval   = flag.Uint64("interval", 2_000_000, "promotion interval (accesses)")
		physGB     = flag.Float64("phys", 4, "physical memory (GB)")
		pccSize    = flag.Int("pcc", 128, "2MB PCC entries")
		demote     = flag.Bool("demote", false, "enable PCC-driven demotion")
		victim     = flag.Bool("victim", false, "use the L2-eviction victim tracker instead of the PCC")
		giga       = flag.Bool("1g", false, "enable 1GB PCC tracking and promotion")
		seed       = flag.Int64("seed", 1, "fragmentation seed")
		churn      = flag.Int("churn", 0, "dynamic pressure: churn allocations per tick (4KB frames)")
		churnFree  = flag.Int("churn-free", -1, "dynamic pressure: churn frees per tick (-1 = half of -churn)")
		churnPin   = flag.Float64("churn-pinned", 0.05, "dynamic pressure: pinned fraction of churn allocations")
		compact    = flag.Int("compact", 0, "dynamic pressure: kcompactd migration budget per tick (4KB frames)")
		demoteWM   = flag.Int("demote-wm", 0, "dynamic pressure: free-block watermark that triggers 2MB demotion")
		traceFile  = flag.String("trace", "", "replay an external trace file instead of a built-in workload (text or PCCTRC1 binary; VMAs inferred from the addresses)")
		numaPolicy = flag.String("numa", "", "enable 2-node NUMA modeling: bind|interleave|local-first (default: off)")
		budgetList = flag.String("budgets", "", "comma list of budget %s to sweep (runs on the pool, overrides -budget)")
		workers    = flag.Int("workers", 0, "parallel simulations for -budgets sweeps (0 = GOMAXPROCS)")
		mshards    = flag.Int("machine-shards", 0, "goroutines the simulated machine may use for independent job groups (0/1 = serial); output is identical at any setting")
		audit      = flag.Bool("audit", false, "verify machine invariants every policy tick and print the metrics snapshot")
		eventsFile = flag.String("events", "", "write the simulation event trace to this file")
		pprofAddr  = flag.String("pprof", "", "serve Go pprof endpoints on this address while running")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, stop, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccbench: -pprof:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("(pprof listening on http://%s/debug/pprof/)\n", addr)
	}
	if *cpuProf != "" {
		stop, err := obs.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccbench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "pccbench: -cpuprofile:", err)
				os.Exit(1)
			}
		}()
	}

	// benchRun is everything one simulation produces that the reports below
	// read; simulate builds the whole stack fresh per call so runs are
	// self-contained pool tasks.
	type benchRun struct {
		wl     workloads.Workload
		policy vmm.Policy
		m      *vmm.Machine
		p      *vmm.Process
		res    vmm.RunResult
	}
	simulate := func(budget float64) (benchRun, error) {
		var wl workloads.Workload
		var err error
		if *traceFile != "" {
			wl, err = traceWorkload(*traceFile)
		} else {
			wl, err = buildWorkload(*app, *dataset, *scale, *sorted, *threads)
		}
		if err != nil {
			return benchRun{}, err
		}

		cfg := vmm.DefaultConfig()
		cfg.Cores = *threads
		cfg.Phys = physmem.Config{TotalBytes: uint64(*physGB * float64(1<<30)), MovableFillRatio: 0.5}
		cfg.FragFrac = *frag
		cfg.Seed = *seed
		cfg.PromotionInterval = *interval
		cfg.PCC2M.Entries = *pccSize
		cfg.AuditEveryTick = *audit
		cfg.Shards = *mshards
		if *churn > 0 || *compact > 0 || *demoteWM > 0 {
			free := *churnFree
			if free < 0 {
				free = *churn / 2
			}
			cfg.Pressure = vmm.PressureConfig{
				Enable:                true,
				ChurnAllocFrames:      *churn,
				ChurnFreeFrames:       free,
				ChurnPinnedFrac:       *churnPin,
				CompactBudgetFrames:   *compact,
				DemoteWatermarkBlocks: *demoteWM,
				MaxDemotionsPerTick:   2,
			}
		}
		if *eventsFile != "" || *audit {
			cfg.EventLogSize = -1
		}
		if *numaPolicy != "" {
			cfg.NUMA = vmm.DefaultNUMAConfig()
			switch *numaPolicy {
			case "bind":
				cfg.NUMA.Policy = vmm.NUMABind
			case "interleave":
				cfg.NUMA.Policy = vmm.NUMAInterleave
			case "local-first":
				cfg.NUMA.Policy = vmm.NUMALocalFirst
				cfg.NUMA.LocalShare = 0.5
			default:
				return benchRun{}, fmt.Errorf("unknown numa policy %q", *numaPolicy)
			}
		}

		var policy vmm.Policy
		var engine *ospolicy.PCCEngine
		switch *policyName {
		case "base":
			policy, cfg.EnablePCC = ospolicy.Baseline{}, false
		case "ideal":
			policy, cfg.EnablePCC = ospolicy.AllHuge{}, false
		case "pcc", "pcc-rr":
			ec := ospolicy.DefaultPCCEngineConfig()
			if *policyName == "pcc-rr" {
				ec.Selection = ospolicy.RoundRobin
			}
			ec.EnableDemotion = *demote
			if *giga {
				ec.Giga = ospolicy.DefaultGiga1GConfig()
				ec.Giga.Enable = true
				cfg.Enable1G = true
			}
			engine = ospolicy.NewPCCEngine(ec)
			policy, cfg.EnablePCC = engine, true
			if *victim {
				cfg.UseVictimTracker = true
			}
		case "hawkeye":
			policy, cfg.EnablePCC = ospolicy.NewHawkEye(ospolicy.DefaultHawkEyeConfig()), false
		case "linux":
			policy, cfg.EnablePCC = ospolicy.NewLinuxTHP(ospolicy.DefaultLinuxTHPConfig()), false
		default:
			return benchRun{}, fmt.Errorf("unknown policy %q", *policyName)
		}

		m := vmm.NewMachine(cfg, policy)
		p := m.AddProcess(wl.Name(), wl.Ranges(), wl.BaseCPA())
		if budget > 0 && budget < 100 {
			p.MaxHugeBytes = uint64(budget / 100 * float64(wl.Footprint()))
		}
		cores := make([]int, *threads)
		for i := range cores {
			cores[i] = i
			if engine != nil {
				engine.Bind(i, p)
			}
		}

		st := wl.Stream()
		defer workloads.CloseStream(st)
		res := m.Run(&vmm.Job{Proc: p, Stream: st, Cores: cores})
		return benchRun{wl: wl, policy: policy, m: m, p: p, res: res}, nil
	}

	// emitObs writes the event trace and, under -audit, the merged metrics
	// snapshot for the finished runs (a run that reaches here passed every
	// per-tick and end-of-run invariant check).
	emitObs := func(runs []benchRun, names []string) {
		if *eventsFile == "" && !*audit {
			return
		}
		sink := obs.NewSink(64 * obs.DefaultEventLogSize)
		reg := obs.NewRegistry()
		for i, r := range runs {
			sink.Drain(names[i], r.m.Events())
			reg.Merge(r.m.Metrics())
		}
		if *eventsFile != "" {
			f, err := os.Create(*eventsFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pccbench: -events:", err)
				os.Exit(1)
			}
			werr := sink.WriteText(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "pccbench: -events:", werr)
				os.Exit(1)
			}
			fmt.Printf("(wrote %d events to %s)\n", sink.Total(), *eventsFile)
		}
		if *audit {
			fmt.Printf("audit: 0 invariant violations (checked every policy tick and end of run)\n")
			fmt.Printf("metrics snapshot:\n%s", reg.Snapshot().Table())
		}
	}

	if *budgetList != "" {
		var budgets []float64
		for _, s := range strings.Split(*budgetList, ",") {
			b, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pccbench: bad -budgets entry %q: %v\n", s, err)
				os.Exit(1)
			}
			budgets = append(budgets, b)
		}
		tasks := make([]experiments.Task[benchRun], len(budgets))
		for i, b := range budgets {
			tasks[i] = experiments.Task[benchRun]{
				Name: fmt.Sprintf("pccbench/%s/%s/b%g", *app, *policyName, b),
				Run:  func() (benchRun, error) { return simulate(b) },
			}
		}
		runs, err := experiments.RunAll(experiments.NewRunPool(*workers), tasks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s sweep: %s  frag=%.0f%%  threads=%d\n", *app, runs[0].policy.Name(), 100**frag, *threads)
		fmt.Printf("%8s %12s %9s %9s %8s %8s\n", "budget%", "cycles", "PTW%", "L1miss%", "2MB", "promos")
		for i, r := range runs {
			fmt.Printf("%8g %12.4g %9.3f %9.3f %8d %8d\n", budgets[i],
				r.res.Cycles, 100*r.res.PTWRate, 100*r.res.L1MissRate,
				r.res.HugePages2M, r.res.Promotions)
		}
		names := make([]string, len(tasks))
		for i, t := range tasks {
			names[i] = t.Name
		}
		emitObs(runs, names)
		return
	}

	r, err := simulate(*budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccbench:", err)
		os.Exit(1)
	}
	wl, res, m, p := r.wl, r.res, r.m, r.p

	fmt.Printf("workload       %s (footprint %s)\n", wl.Name(), mem.HumanBytes(wl.Footprint()))
	fmt.Printf("policy         %s  frag=%.0f%%  budget=%.0f%%  threads=%d\n",
		r.policy.Name(), 100**frag, *budget, *threads)
	fmt.Printf("accesses       %d\n", res.Accesses)
	fmt.Printf("cycles         %.4g\n", res.Cycles)
	fmt.Printf("PTW rate       %.3f%%\n", 100*res.PTWRate)
	fmt.Printf("L1 miss rate   %.3f%%\n", 100*res.L1MissRate)
	fmt.Printf("huge pages     %d (2MB), %d (1GB)\n", res.HugePages2M, res.HugePages1G)
	fmt.Printf("promotions     %d   demotions %d\n", res.Promotions, res.Demotions)
	fmt.Printf("stall cycles   %.4g   background %.4g\n", res.StallCycles, res.BackgroundCycles)
	fmt.Printf("phys           %v\n", m.Phys())
	if m.Config().Pressure.Enable {
		st := m.Phys().Stats()
		fmt.Printf("pressure       churn alloc=%d free=%d pinned=%d blocked=%d   daemon migrated=%d rebuilt=%d   pressure demotions=%d\n",
			st.ChurnAllocFrames, st.ChurnFreeFrames, st.ChurnPinnedFrames, st.ChurnBlockedAllocs,
			st.DaemonMigrated, st.DaemonRebuilt, m.PressureDemotions)
	}
	fmt.Printf("bloat          %s (touched %s)\n",
		mem.HumanBytes(p.BloatBytes()), mem.HumanBytes(p.TouchedBytes()))
	emitObs([]benchRun{r}, []string{wl.Name()})
}

// cpaWorkload attaches a base cycles-per-access to a SynthApp.
type cpaWorkload struct {
	*workloads.SynthApp
	cpa float64
}

func (w cpaWorkload) BaseCPA() float64 { return w.cpa }

// fileWorkload replays an external trace through the simulator: the VMAs
// are inferred by scanning the file once for its 2MB-aligned address
// extent per contiguous cluster.
type fileWorkload struct {
	path   string
	name   string
	ranges []mem.Range
	bytes  uint64
}

func (w *fileWorkload) Name() string        { return w.name }
func (w *fileWorkload) Footprint() uint64   { return w.bytes }
func (w *fileWorkload) Ranges() []mem.Range { return w.ranges }
func (w *fileWorkload) BaseCPA() float64    { return 18 }
func (w *fileWorkload) Stream() trace.Stream {
	fs, err := trace.OpenFile(w.path)
	if err != nil {
		// Stream construction cannot fail in the Workload contract; an
		// unreadable file yields an empty stream (the pre-scan already
		// validated it once).
		return trace.Slice(nil)
	}
	return fs
}

// traceWorkload pre-scans path to derive VMAs: touched 2MB regions are
// clustered into ranges, merging regions separated by <= 16MB of gap.
func traceWorkload(path string) (workloads.Workload, error) {
	fs, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	regions := map[mem.VirtAddr]bool{}
	for {
		a, ok := fs.Next()
		if !ok {
			break
		}
		regions[mem.PageBase(a.Addr, mem.Page2M)] = true
	}
	if err := fs.Err(); err != nil {
		return nil, err
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("trace %s contains no accesses", path)
	}
	bases := make([]mem.VirtAddr, 0, len(regions))
	for b := range regions {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	const mergeGap = 16 << 20
	var ranges []mem.Range
	cur := mem.Range{Start: bases[0], End: bases[0] + mem.VirtAddr(mem.Page2M)}
	for _, b := range bases[1:] {
		if b <= cur.End+mergeGap {
			cur.End = b + mem.VirtAddr(mem.Page2M)
		} else {
			ranges = append(ranges, cur)
			cur = mem.Range{Start: b, End: b + mem.VirtAddr(mem.Page2M)}
		}
	}
	ranges = append(ranges, cur)
	var total uint64
	for _, r := range ranges {
		total += r.Len()
	}
	return &fileWorkload{path: path, name: "trace:" + path, ranges: ranges, bytes: total}, nil
}

// buildWorkload resolves -app, including the extension workloads that live
// outside the paper's eight-application registry.
func buildWorkload(app, dataset string, scale int, sorted bool, threads int) (workloads.Workload, error) {
	switch app {
	case "phased":
		return cpaWorkload{workloads.Phased(workloads.DefaultPhasedParams()), 16}, nil
	case "bigtable":
		return cpaWorkload{workloads.BigTable(workloads.DefaultBigTableParams()), 16}, nil
	case "sparse":
		return cpaWorkload{workloads.Sparse(workloads.DefaultSparseParams()), 20}, nil
	default:
		return workloads.Build(workloads.Spec{
			Name: app, Dataset: workloads.GraphDataset(dataset),
			Scale: scale, Sorted: sorted, Threads: threads,
		})
	}
}
