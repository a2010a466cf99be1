package vmm

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pccsim/internal/mem"
	"pccsim/internal/trace"
)

// tickPromotePolicy is base-fault-only (so sharded execution engages) but
// performs cross-core machinery at every tick: it promotes each process's
// next 2MB region, which shoots down translations on every core. Promotions
// run at epoch barriers, so results must stay byte-identical at any shard
// count even though the promoted regions are concurrently accessed between
// barriers. Its tick count is its policy state, so runs resume across a
// checkpoint.
type tickPromotePolicy struct{ n int }

func (p *tickPromotePolicy) Name() string { return "tick-promote" }
func (p *tickPromotePolicy) OnFault(*Machine, *Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}
func (p *tickPromotePolicy) BaseFaultOnly() {}
func (p *tickPromotePolicy) Tick(m *Machine) {
	for _, proc := range m.Procs() {
		r := proc.Ranges()[0]
		if base := r.Start + mem.VirtAddr(p.n)<<21; base < r.End {
			// Best-effort: fragmented blocks may refuse, exactly as they
			// would serially.
			_ = m.Promote2M(proc, base)
		}
	}
	p.n++
}
func (p *tickPromotePolicy) PolicyState() any { return p.n }
func (p *tickPromotePolicy) RestorePolicyState(_ *Machine, st any) error {
	n, ok := st.(int)
	if !ok {
		return fmt.Errorf("tick-promote cannot restore %T", st)
	}
	p.n = n
	return nil
}

// shardFingerprint collects everything observable about a finished run so
// shard-count equivalence checks compare complete machine state, not just
// headline numbers.
func shardFingerprint(m *Machine, res RunResult) string {
	s := fmt.Sprintf("res=%+v\n", res)
	for i, c := range m.Cores() {
		s += fmt.Sprintf("core%d cycles=%v acc=%d stall=%v tlb=%d/%d/%d walker=%+v\n",
			i, c.Cycles, c.Accesses, c.StallCycles,
			c.TLB.Accesses(), c.TLB.L1Misses(), c.TLB.Walks(), c.Walker.Stats())
		if c.PCC2M != nil {
			s += fmt.Sprintf("core%d pcc=%+v\n", i, c.PCC2M.Stats())
		}
	}
	for _, p := range m.Procs() {
		s += fmt.Sprintf("proc %s rt=%v faults=%d promo=%d huge=%d touched=%d bloat=%d\n",
			p.Name, p.RuntimeCycles, p.Faults, p.Promotions2M,
			p.HugePages2M(), p.TouchedBytes(), p.BloatBytes())
	}
	return s
}

// shardTestRun builds a 4-core machine with four jobs in three independent
// groups (two single-core jobs, one two-job group sharing core 3 plus a
// multi-core job with a duplicate core entry) and runs it at the given shard
// count. Streams have different lengths so completion records interleave with
// ticks differently per group.
func shardTestRun(t *testing.T, shards int) (string, RunResult) {
	t.Helper()
	cfg := testConfig()
	cfg.Cores = 4
	cfg.Shards = shards
	cfg.FragFrac = 0.25
	cfg.PromotionInterval = 5_000
	m := NewMachine(cfg, &tickPromotePolicy{})

	var jobs []*Job
	sizes := []int{4, 2, 6, 3}
	cores := [][]int{{0}, {1}, {2, 3, 2}, {3}}
	rounds := []int{3, 7, 2, 5}
	for i := 0; i < 4; i++ {
		p := m.AddProcess(fmt.Sprintf("p%d", i), testVMA(sizes[i]), 10)
		jobs = append(jobs, &Job{
			Proc:   p,
			Stream: trace.Slice(mixedStream(p.Ranges()[0], rounds[i])),
			Cores:  cores[i],
		})
	}
	res := m.Run(jobs...)
	return shardFingerprint(m, res), res
}

// TestShardEquivalence: the sharded scheduler must produce byte-identical
// machine state at every shard count, including shard counts above the group
// count and the serial fallback — the tentpole determinism contract.
func TestShardEquivalence(t *testing.T) {
	want, wantRes := shardTestRun(t, 1)
	for _, shards := range []int{2, 3, 8} {
		got, gotRes := shardTestRun(t, shards)
		if got != want {
			t.Errorf("shards=%d diverges from serial:\nserial:\n%s\nsharded:\n%s", shards, want, got)
		}
		if !reflect.DeepEqual(wantRes.PerProc, gotRes.PerProc) {
			t.Errorf("shards=%d PerProc diverges:\n%+v\nvs\n%+v", shards, wantRes.PerProc, gotRes.PerProc)
		}
	}
}

// TestShardGroupsPartition: the union-find grouping must merge jobs sharing
// cores (including via duplicate entries in one Cores list) or processes,
// and the gates must disable sharding when the policy is not base-fault-only
// or the machine runs the NUMA model.
func TestShardGroupsPartition(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	cfg.Shards = 4
	m := NewMachine(cfg, nil) // nil policy is base-fault-only
	pa := m.AddProcess("a", testVMA(1), 10)
	pb := m.AddProcess("b", testVMA(1), 10)
	pc := m.AddProcess("c", testVMA(1), 10)

	mk := func(p *Process, cores ...int) *liveJob {
		return &liveJob{Job: &Job{Proc: p, Cores: cores}}
	}

	// Jobs 0 and 1 share core 1 (via job 0's duplicate list); job 2 is
	// independent; job 3 shares job 2's process.
	live := []*liveJob{mk(pa, 0, 1, 0), mk(pb, 1), mk(pc, 2), mk(pc, 3)}
	groupOf, groups := m.shardGroups(live)
	if groups != 2 {
		t.Fatalf("groups = %d, want 2 (got %v)", groups, groupOf)
	}
	if groupOf[0] != groupOf[1] || groupOf[2] != groupOf[3] || groupOf[0] == groupOf[2] {
		t.Errorf("grouping wrong: %v", groupOf)
	}

	// Fully disjoint jobs: one group each.
	live = []*liveJob{mk(pa, 0), mk(pb, 1), mk(pc, 2)}
	if _, g := m.shardGroups(live); g != 3 {
		t.Errorf("disjoint groups = %d, want 3", g)
	}

	// Gate: Shards <= 1.
	m.cfg.Shards = 1
	if _, g := m.shardGroups(live); g != 1 {
		t.Errorf("Shards=1 must fall back to serial, got %d groups", g)
	}
	m.cfg.Shards = 4

	// Gate: single job.
	if _, g := m.shardGroups(live[:1]); g != 1 {
		t.Errorf("single job must fall back to serial, got %d groups", g)
	}

	// Gate: policy with a live fault path (not BaseFaultOnly).
	m2 := NewMachine(Config{
		Cores: 4, TLB: cfg.TLB, PWC: cfg.PWC, PCC2M: cfg.PCC2M, PCC1G: cfg.PCC1G,
		Cost: cfg.Cost, Phys: cfg.Phys, PromotionInterval: cfg.PromotionInterval,
		Shards: 4,
	}, &funcPolicy{})
	p2 := m2.AddProcess("x", testVMA(1), 10)
	p3 := m2.AddProcess("y", testVMA(1), 10)
	live2 := []*liveJob{
		{Job: &Job{Proc: p2, Cores: []int{0}}},
		{Job: &Job{Proc: p3, Cores: []int{1}}},
	}
	if _, g := m2.shardGroups(live2); g != 1 {
		t.Errorf("non-base-fault policy must fall back to serial, got %d groups", g)
	}

	// Gate: NUMA on (first-touch placement writes on the access path).
	cfgN := testConfig()
	cfgN.Cores = 4
	cfgN.Shards = 4
	cfgN.NUMA = DefaultNUMAConfig()
	mn := NewMachine(cfgN, nil)
	pn1 := mn.AddProcess("n1", testVMA(1), 10)
	pn2 := mn.AddProcess("n2", testVMA(1), 10)
	liveN := []*liveJob{
		{Job: &Job{Proc: pn1, Cores: []int{0}}},
		{Job: &Job{Proc: pn2, Cores: []int{1}}},
	}
	if _, g := mn.shardGroups(liveN); g != 1 {
		t.Errorf("NUMA machine must fall back to serial, got %d groups", g)
	}
}

// TestShardShortStreams: streams shorter than one jobSlice (including an
// empty one) complete correctly under sharding — the completion record runs
// behind the group's queued work, so runtimes match the serial scheduler's.
func TestShardShortStreams(t *testing.T) {
	run := func(shards int) (string, RunResult) {
		cfg := testConfig()
		cfg.Cores = 3
		cfg.Shards = shards
		m := NewMachine(cfg, nil)
		empty := m.AddProcess("empty", testVMA(1), 10)
		tiny := m.AddProcess("tiny", testVMA(1), 10)
		long := m.AddProcess("long", testVMA(4), 10)
		res := m.Run(
			&Job{Proc: empty, Stream: trace.Slice(nil), Cores: []int{0}},
			&Job{Proc: tiny, Stream: trace.Slice(mixedStream(tiny.Ranges()[0], 1)[:100]), Cores: []int{1}},
			&Job{Proc: long, Stream: seqStream(long.Ranges()[0], 8), Cores: []int{2}},
		)
		return shardFingerprint(m, res), res
	}
	want, wantRes := run(1)
	got, gotRes := run(3)
	if got != want {
		t.Errorf("sharded short-stream run diverges:\nserial:\n%s\nsharded:\n%s", want, got)
	}
	if !reflect.DeepEqual(wantRes.PerProc, gotRes.PerProc) {
		t.Errorf("PerProc diverges: %+v vs %+v", wantRes.PerProc, gotRes.PerProc)
	}
	// Completion-order sanity: the empty job records zero runtime, and the
	// long job dominates wall clock.
	if gotRes.PerProc[0].Accesses != 0 {
		t.Errorf("empty job simulated %d accesses", gotRes.PerProc[0].Accesses)
	}
	if gotRes.PerProc[2].RuntimeCycles < gotRes.PerProc[1].RuntimeCycles {
		t.Error("long job must finish after tiny job")
	}
}

// TestShardedRunUnderChurn drives a sharded machine with the dynamic
// pressure model (allocation churn, compaction, watermark demotion) plus
// tick promotions and their shootdowns. Run under -race this pins down that
// workers never touch shared state outside barriers; under normal test runs
// it pins byte-identity in the harshest cross-core regime.
func TestShardedRunUnderChurn(t *testing.T) {
	run := func(shards int) (string, RunResult) {
		cfg := testConfig()
		cfg.Cores = 4
		cfg.Shards = shards
		cfg.FragFrac = 0.3
		cfg.PromotionInterval = 4_000
		cfg.Pressure = PressureConfig{
			Enable:                true,
			ChurnAllocFrames:      64,
			ChurnFreeFrames:       32,
			ChurnPinnedFrac:       0.1,
			CompactBudgetFrames:   128,
			DemoteWatermarkBlocks: 2,
			MaxDemotionsPerTick:   2,
		}
		m := NewMachine(cfg, &tickPromotePolicy{})
		var jobs []*Job
		for i := 0; i < 4; i++ {
			p := m.AddProcess(fmt.Sprintf("c%d", i), testVMA(3), 10)
			jobs = append(jobs, &Job{
				Proc:   p,
				Stream: trace.Slice(mixedStream(p.Ranges()[0], 3)),
				Cores:  []int{i},
			})
		}
		res := m.Run(jobs...)
		return shardFingerprint(m, res), res
	}
	want, _ := run(1)
	got, _ := run(4)
	if got != want {
		t.Errorf("churn run diverges under sharding:\nserial:\n%s\nsharded:\n%s", want, got)
	}
}

// TestAbandonedShardedRunLeavesNoGoroutine: a sharded run stopped at a cut
// and never finished (a snapshot cut's first machine) leaves no worker
// goroutine behind, because workers live for one RunUntil call.
func TestAbandonedShardedRunLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m, jobs := shardedSetup().withShards(4).newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	if m.sched.shards == nil {
		t.Fatal("the workload must run under the sharded strategy")
	}
	m.RunUntil(6_001)
	// Workers signal completion just before they return, so give the
	// runtime a moment to retire them.
	after := runtime.NumGoroutine()
	for i := 0; i < 100 && after > before; i++ {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Errorf("goroutines: %d before the run, %d after abandoning it", before, after)
	}
}
