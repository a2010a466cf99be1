package vmm

import (
	"fmt"
	"reflect"
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// Checkpoint/restore equivalence tests: the contract is that a run
// interrupted at ANY point on the access clock — checkpointed, restored into
// a freshly built machine, and resumed — produces results bit-identical to
// the uninterrupted run. These tests sweep cut points chosen to land on
// every scheduler edge: mid-batch, exact serialChunk/jobSlice boundaries,
// exact tick boundaries, one past them, and beyond the end of the stream.

// statefulTestPolicy promotes the first promotable region each tick and
// carries a cross-tick ledger, exercising the StatefulPolicy plumbing
// without importing ospolicy (which would cycle).
type statefulTestPolicy struct {
	ticks    uint64
	promoted uint64
}

type statefulTestPolicyState struct {
	Ticks    uint64
	Promoted uint64
}

func (s *statefulTestPolicy) Name() string { return "stateful-test" }
func (s *statefulTestPolicy) OnFault(*Machine, *Process, mem.VirtAddr) mem.PageSize {
	return mem.Page4K
}
func (s *statefulTestPolicy) Tick(m *Machine) {
	s.ticks++
	for _, p := range m.Procs() {
		for _, r := range p.Ranges() {
			for b := r.Start; b < r.End; b += mem.VirtAddr(mem.Page2M) {
				if p.IsHuge2M(b) {
					continue
				}
				if err := m.Promote2M(p, b); err == nil {
					s.promoted++
					return
				} else if IsNoPhysicalBlock(err) {
					return
				}
			}
		}
	}
}
func (s *statefulTestPolicy) PolicyState() any {
	return statefulTestPolicyState{Ticks: s.ticks, Promoted: s.promoted}
}
func (s *statefulTestPolicy) RestorePolicyState(_ *Machine, st any) error {
	v, ok := st.(statefulTestPolicyState)
	if !ok {
		return fmt.Errorf("stateful-test cannot restore %T", st)
	}
	s.ticks, s.promoted = v.Ticks, v.Promoted
	return nil
}

// simSetup builds identical machines on demand: cfg is shared, policy and
// build produce a fresh policy / fresh processes+jobs (with fresh streams)
// per machine, exactly like an experiment runner reconstructing a sim.
type simSetup struct {
	cfg    Config
	policy func() Policy
	build  func(m *Machine) []*Job
}

// withShards returns the setup with Config.Shards set to n.
func (s simSetup) withShards(n int) simSetup {
	s.cfg.Shards = n
	return s
}

func (s simSetup) newMachine() (*Machine, []*Job) {
	var pol Policy
	if s.policy != nil {
		pol = s.policy()
	}
	m := NewMachine(s.cfg, pol)
	return m, s.build(m)
}

// stripVolatile zeroes the state fields allowed to diverge after a restore:
// the TLB hierarchies' internal recency clocks advance differently once the
// L0 filter is cleared (the filtered accesses re-touch their L1 MRU ways).
// That divergence is unobservable — same hits, misses, walks, costs,
// evictions — and everything else must match exactly.
func stripVolatile(s *MachineState) {
	for i := range s.Cores {
		s.Cores[i].TLB = tlb.HierarchyState{}
	}
}

func runUninterrupted(t *testing.T, s simSetup) (RunResult, MachineState) {
	t.Helper()
	m, jobs := s.newMachine()
	res := m.Run(jobs...)
	return res, m.State()
}

// runWithCheckpoint runs machine A to the cut, captures its state, restores
// it into a freshly built machine B, and lets B finish the run. It returns
// B's result and final state, and the state captured at the cut.
func runWithCheckpoint(t *testing.T, s simSetup, cut uint64) (RunResult, MachineState, MachineState) {
	t.Helper()
	mA, jobsA := s.newMachine()
	if err := mA.StartRun(jobsA...); err != nil {
		t.Fatalf("cut %d: StartRun(A): %v", cut, err)
	}
	mA.RunUntil(cut)
	st := mA.State()

	mB, jobsB := s.newMachine()
	if err := mB.RestoreState(st); err != nil {
		t.Fatalf("cut %d: RestoreState: %v", cut, err)
	}
	if err := mB.StartRun(jobsB...); err != nil {
		t.Fatalf("cut %d: StartRun(B): %v", cut, err)
	}
	res := mB.FinishRun()
	return res, mB.State(), st
}

// checkResumeEquivalence cuts the run at every cut point, at every given
// shard count (serial only when none is given). Each resumed run must end
// with the uninterrupted serial run's RunResult and stripped final state,
// and the state captured at a cut must be identical at every shard count.
func checkResumeEquivalence(t *testing.T, s simSetup, cuts []uint64, shards ...int) {
	t.Helper()
	if len(shards) == 0 {
		shards = []int{1}
	}
	wantRes, wantState := runUninterrupted(t, s.withShards(1))
	stripVolatile(&wantState)
	for _, cut := range cuts {
		var firstCut MachineState
		for i, n := range shards {
			gotRes, gotState, cutState := runWithCheckpoint(t, s.withShards(n), cut)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("shards %d cut %d: RunResult diverged:\ngot  %+v\nwant %+v", n, cut, gotRes, wantRes)
			}
			stripVolatile(&gotState)
			if !reflect.DeepEqual(gotState, wantState) {
				t.Errorf("shards %d cut %d: final machine state diverged", n, cut)
			}
			if i == 0 {
				firstCut = cutState
			} else if !reflect.DeepEqual(cutState, firstCut) {
				t.Errorf("cut %d: state at the cut differs between shards %d and %d", cut, shards[0], n)
			}
		}
	}
}

// multiJobSetup is a two-job round-robin run under an actively promoting
// stateful policy: job a has 5120 accesses, job b 6144, 11264 in total.
func multiJobSetup() simSetup {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.PromotionInterval = 2_000
	return simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			pa := m.AddProcess("a", testVMA(2), 10)
			pb := m.AddProcess("b", testVMA(3), 12)
			return []*Job{
				{Proc: pa, Stream: seqStream(pa.Ranges()[0], 5), Cores: []int{0}},
				{Proc: pb, Stream: seqStream(pb.Ranges()[0], 4), Cores: []int{1}},
			}
		},
	}
}

// shardedSetup is a two-job, base-fault-only workload in two independent
// groups, so StartRun picks the sharded strategy at Shards > 1. Job a is a
// slice of 5120 accesses; job b is a columnar replay of 6144, read in place
// by the serial strategy and through pool buffers by the sharded one. Ticks
// fire every 3000 accesses; job a's stream ends at clock 9216 and the run at
// 11264.
func shardedSetup() simSetup {
	cfg := testConfig()
	cfg.Cores = 2
	cfg.FragFrac = 0.25
	cfg.PromotionInterval = 3_000
	return simSetup{
		cfg:    cfg,
		policy: func() Policy { return &tickPromotePolicy{} },
		build: func(m *Machine) []*Job {
			pa := m.AddProcess("a", testVMA(2), 10)
			pb := m.AddProcess("b", testVMA(3), 12)
			return []*Job{
				{Proc: pa, Stream: seqStream(pa.Ranges()[0], 5), Cores: []int{0}},
				{Proc: pb, Stream: trace.RecordBlocks(seqStream(pb.Ranges()[0], 4), 0).Replay(), Cores: []int{1}},
			}
		},
	}
}

// stopsSingleSetup is a single-job run under an actively promoting stateful
// policy with the PCC enabled; 6144 accesses, ticks every 2000. A single job
// always falls back to the serial strategy.
func stopsSingleSetup() simSetup {
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.PromotionInterval = 2_000
	return simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}}
		},
	}
}

// checkStopsInvisible runs s at shards {1,4} through StartRun, RunUntil at
// each stop, and FinishRun, and requires the result and the raw final state
// — TLB included, since nothing was invalidated — to equal the serial Run's.
func checkStopsInvisible(t *testing.T, name string, s simSetup, stops []uint64) {
	t.Helper()
	wantRes, wantState := runUninterrupted(t, s.withShards(1))
	for _, shards := range []int{1, 4} {
		m, jobs := s.withShards(shards).newMachine()
		if err := m.StartRun(jobs...); err != nil {
			t.Fatal(err)
		}
		for _, stop := range stops {
			m.RunUntil(stop)
		}
		gotRes := m.FinishRun()
		gotState := m.State()
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s shards %d: RunResult diverged:\ngot  %+v\nwant %+v", name, shards, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotState, wantState) {
			t.Errorf("%s shards %d: final state diverged", name, shards)
		}
	}
}

// TestStartRunFinishRunMatchesRun: the interruptible runner with no stops,
// under either execution strategy, is exactly the serial Run.
func TestStartRunFinishRunMatchesRun(t *testing.T) {
	checkStopsInvisible(t, "single", stopsSingleSetup(), nil)
	checkStopsInvisible(t, "sharded", shardedSetup(), nil)
}

// TestRunUntilStopsAreInvisible: pausing at arbitrary points (without any
// checkpoint/restore) must not perturb the run at all, under either
// execution strategy.
func TestRunUntilStopsAreInvisible(t *testing.T) {
	// 1 (first access), 97 (mid-batch), 512 (serialChunk edge), 2_000 (tick
	// edge), 2_001 (one past), 5_000 (mid-run).
	checkStopsInvisible(t, "single", stopsSingleSetup(), []uint64{1, 97, 512, 2_000, 2_001, 5_000})
	// jobSlice edges, a tick edge, job a's end and the exact end.
	checkStopsInvisible(t, "sharded", shardedSetup(), []uint64{1, 4_095, 4_096, 6_000, 9_216, 11_264})
}

// TestCheckpointResumeSingleJob sweeps checkpoint cuts across a single-job
// run under an actively promoting stateful policy with the PCC enabled.
func TestCheckpointResumeSingleJob(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.FragFrac = 0.25
	cfg.Seed = 7
	cfg.PromotionInterval = 2_000
	s := simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 3)}}
		},
	}
	// 6144 total accesses; cuts hit the first access, mid-batch, the
	// serialChunk edge, tick edges and their +1, mid-run, the exact end, and
	// past the end (checkpoint of an already-finished run).
	checkResumeEquivalence(t, s, []uint64{
		1, 97, 512, 513, 2_000, 2_001, 4_000, 5_555, 6_144, 10_000,
	})
}

// TestCheckpointResumeUnderPressure: the pressure model's churn/compaction
// RNG stream position must survive the checkpoint exactly.
func TestCheckpointResumeUnderPressure(t *testing.T) {
	s := simSetup{
		cfg: pressureConfig(),
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(4), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 6)}}
		},
	}
	// 12288 accesses, ticks every 2000.
	checkResumeEquivalence(t, s, []uint64{1, 1_999, 2_000, 2_001, 6_100, 12_288})
}

// TestCheckpointResumeMultiJob sweeps cuts across a two-job round-robin run,
// including the exact jobSlice rotation edges.
func TestCheckpointResumeMultiJob(t *testing.T) {
	// Cuts cover the rotation quantum (4096) and its neighbours, a tick
	// edge, the point where the shorter job finishes, the exact end, and
	// past the end.
	checkResumeEquivalence(t, multiJobSetup(), []uint64{
		1, 4_095, 4_096, 4_097, 8_000, 10_240, 11_264, 20_000,
	})
}

// TestCheckpointResumeSharded sweeps cuts across a run the sharded strategy
// executes at Shards 4: the resumed runs must match the uninterrupted serial
// run, and the state captured at each cut must not depend on the shard
// count.
func TestCheckpointResumeSharded(t *testing.T) {
	// The first access, jobSlice and its neighbours, a tick edge, job a's
	// end, the exact end and past the end.
	checkResumeEquivalence(t, shardedSetup(), []uint64{
		1, 4_095, 4_096, 4_097, 6_000, 9_216, 11_264, 20_000,
	}, 1, 4)
}

// TestRunResumesRestoredState: Run on a machine whose RestoreState staged a
// mid-run scheduler position resumes that run, rather than replaying every
// stream from access 0 on top of the restored state.
func TestRunResumesRestoredState(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    simSetup
	}{
		{"serial", multiJobSetup()},
		{"sharded", shardedSetup().withShards(4)},
	} {
		wantRes, wantState := runUninterrupted(t, tc.s)
		stripVolatile(&wantState)

		mA, jobsA := tc.s.newMachine()
		if err := mA.StartRun(jobsA...); err != nil {
			t.Fatal(err)
		}
		mA.RunUntil(4_097)
		st := mA.State()

		mB, jobsB := tc.s.newMachine()
		if err := mB.RestoreState(st); err != nil {
			t.Fatalf("%s: RestoreState: %v", tc.name, err)
		}
		gotRes := mB.Run(jobsB...)
		gotState := mB.State()
		stripVolatile(&gotState)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: RunResult diverged:\ngot  %+v\nwant %+v", tc.name, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotState, wantState) {
			t.Errorf("%s: final machine state diverged", tc.name)
		}
	}
}

// TestCheckpointResumeEveryCutNearTick brute-forces every cut in a window
// around a tick boundary — the densest cluster of state transitions
// (deferred alloc flush, policy tick, pressure work all fire there).
func TestCheckpointResumeEveryCutNearTick(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force cut sweep")
	}
	cfg := testConfig()
	cfg.EnablePCC = true
	cfg.PromotionInterval = 1_000
	s := simSetup{
		cfg:    cfg,
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(2), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 2)}}
		},
	}
	var cuts []uint64
	for c := uint64(990); c <= 1_010; c++ {
		cuts = append(cuts, c)
	}
	checkResumeEquivalence(t, s, cuts)
}

// TestRestoreStateRejectsMismatches: every structural mismatch between a
// state and its target machine must be refused before anything runs.
func TestRestoreStateRejectsMismatches(t *testing.T) {
	base := simSetup{
		cfg:    testConfig(),
		policy: func() Policy { return &statefulTestPolicy{} },
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(2), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 1)}}
		},
	}
	m, jobs := base.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(500)
	good := m.State()

	fresh := func() *Machine {
		fm, _ := base.newMachine()
		return fm
	}

	cases := []struct {
		name   string
		target func() *Machine
		mutate func(*MachineState)
	}{
		{"proc count", func() *Machine {
			fm := NewMachine(base.cfg, &statefulTestPolicy{})
			fm.AddProcess("t", testVMA(2), 10)
			fm.AddProcess("extra", testVMA(1), 10)
			return fm
		}, nil},
		{"proc identity", fresh, func(s *MachineState) { s.Procs[0].Name = "other" }},
		{"vma geometry", fresh, func(s *MachineState) { s.Procs[0].VMAs[0].State = s.Procs[0].VMAs[0].State[:1] }},
		{"page state range", fresh, func(s *MachineState) { s.Procs[0].VMAs[0].State[0] = 200 }},
		{"policy name", func() *Machine {
			fm := NewMachine(base.cfg, nil)
			fm.AddProcess("t", testVMA(2), 10)
			return fm
		}, nil},
		{"missing policy ledger", fresh, func(s *MachineState) { s.PolicyState = nil }},
		{"core count", fresh, func(s *MachineState) { s.Cores = s.Cores[:0] }},
		{"numa off", fresh, func(s *MachineState) {
			s.NUMAPlacements = []NUMAPlacement{{PID: 0, Base: 16 << 20, Node: 0}}
		}},
		{"sched job index", fresh, func(s *MachineState) { s.Sched.JobIdx = 5 }},
		{"sched slice", fresh, func(s *MachineState) { s.Sched.SliceLeft = 0 }},
		{"sched shape", fresh, func(s *MachineState) { s.Sched.Done = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			if tc.mutate != nil {
				// Deep-enough copy for the fields the mutations touch.
				st.Procs = append([]ProcessState(nil), good.Procs...)
				st.Procs[0].VMAs = append([]VMAState(nil), good.Procs[0].VMAs...)
				st.Procs[0].VMAs[0].State = append([]uint8(nil), good.Procs[0].VMAs[0].State...)
				if good.Sched != nil {
					sc := *good.Sched
					sc.Consumed = append([]uint64(nil), good.Sched.Consumed...)
					sc.Done = append([]bool(nil), good.Sched.Done...)
					st.Sched = &sc
				}
				tc.mutate(&st)
			}
			if err := tc.target().RestoreState(st); err == nil {
				t.Error("mismatched state must be refused")
			}
		})
	}

	// The unmutated state into a fresh identical machine must succeed.
	if err := fresh().RestoreState(good); err != nil {
		t.Fatalf("control restore failed: %v", err)
	}
}

// TestRestoreIntoBusyMachineRefused: a machine mid-run cannot be a restore
// target.
func TestRestoreIntoBusyMachineRefused(t *testing.T) {
	s := simSetup{
		cfg: testConfig(),
		build: func(m *Machine) []*Job {
			p := m.AddProcess("t", testVMA(1), 10)
			return []*Job{{Proc: p, Stream: seqStream(p.Ranges()[0], 1)}}
		},
	}
	m, jobs := s.newMachine()
	if err := m.StartRun(jobs...); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(10)
	st := m.State()
	if err := m.RestoreState(st); err == nil {
		t.Error("restore into a machine with a run in progress must fail")
	}
	m.FinishRun()
}
