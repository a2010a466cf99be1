package vmm

import (
	"fmt"

	"pccsim/internal/trace"
)

// The scheduler. Every run — Run, a snapshot cut, a daemon resume — is
// StartRun, any number of RunUntil calls, then FinishRun over one sched. The
// caller advances the machine to chosen points on the global access clock,
// may capture a full State() between any two calls, and a restored machine
// picks the run back up mid-stream.
//
// sched owns the schedule: round-robin over live jobs, jobSlice accesses
// per turn, requests cut at policy ticks. RunUntil is the only code that
// picks the next job, sizes a request and detects the end of a stream;
// exec is the only code that cuts a request at ticks. The two execution
// strategies differ only inside exec: the serial one runs each segment
// inline, the sharded one (see shardLanes) dispatches it to a lane and runs
// the tick behind an epoch barrier. Stopping early only shortens requests;
// BatchStream's prefix guarantee means the access sequence is unchanged, so
// stops are invisible and a cut captures the same MachineState at every
// shard count.

// runForever is a stopAt no clock reaches: RunUntil(runForever) drains.
const runForever = ^uint64(0)

// sched is an in-progress run.
type sched struct {
	live []*liveJob
	// ex holds the global clock and the deferred base-page allocations not
	// yet applied; under the serial strategy it also executes every segment.
	ex        *executor
	shards    *shardLanes // nil under the serial strategy
	jobIdx    int         // round-robin position
	sliceLeft int         // accesses left in the current job's quantum
	remaining int         // jobs not yet completed
}

func (s *sched) advance() {
	s.jobIdx = (s.jobIdx + 1) % len(s.live)
	s.sliceLeft = jobSlice
}

// StartRun begins a run over the given jobs, picking the sharded strategy
// when shardGroups allows it. If the machine was restored from a mid-run
// state, the job list must match the checkpointed one (same order, streams
// regenerating the same accesses); each stream is fast-forwarded past the
// accesses the checkpointed run had already consumed, and execution resumes
// at the exact scheduler position.
func (m *Machine) StartRun(jobs ...*Job) error {
	if m.sched != nil {
		return fmt.Errorf("vmm: StartRun: a run is already in progress")
	}
	live := make([]*liveJob, len(jobs))
	for i, j := range jobs {
		if len(j.Cores) == 0 {
			j.Cores = []int{0}
		}
		for _, c := range j.Cores {
			if c < 0 || c >= len(m.cores) {
				return fmt.Errorf("vmm: StartRun: job %d core %d out of range", i, c)
			}
		}
		live[i] = &liveJob{Job: j, stream: trace.Batched(j.Stream)}
		if bs, ok := j.Stream.(trace.BlockSource); ok {
			live[i].block = bs
		}
	}
	ex := m.newExecutor()
	ex.now = m.accessCount
	s := &sched{
		live:      live,
		ex:        ex,
		sliceLeft: jobSlice,
		remaining: len(live),
	}
	if ps := m.pendingSched; ps != nil {
		m.pendingSched = nil
		if len(ps.Consumed) != len(live) {
			return fmt.Errorf("vmm: StartRun: restored state expects %d jobs, got %d", len(ps.Consumed), len(live))
		}
		skipBuf := make([]trace.Access, jobSlice)
		for i, lj := range live {
			if err := skipStream(lj.stream, ps.Consumed[i], skipBuf); err != nil {
				return fmt.Errorf("vmm: StartRun: job %d: %w", i, err)
			}
			lj.accesses = ps.Consumed[i]
			lj.done = ps.Done[i]
			if lj.done {
				s.remaining--
			}
		}
		s.jobIdx = ps.JobIdx
		s.sliceLeft = ps.SliceLeft
		s.ex.baseAllocs = ps.PendingAllocs
	}
	if groupOf, groups := m.shardGroups(live); groups > 1 {
		s.shards = m.newShardLanes(groupOf, groups)
	}
	m.sched = s
	return nil
}

// skipStream discards n accesses from the front of s (the part of the trace
// a checkpointed run already executed).
func skipStream(s trace.BatchStream, n uint64, buf []trace.Access) error {
	left := n
	for left > 0 {
		want := uint64(len(buf))
		if left < want {
			want = left
		}
		got := s.NextBatch(buf[:want])
		if got == 0 {
			return fmt.Errorf("stream exhausted after skipping %d of %d checkpointed accesses", n-left, n)
		}
		left -= uint64(got)
	}
	return nil
}

// RunUntil advances the run until the global access clock reaches stopAt or
// every job completes, and reports whether all jobs are done. Requests are
// truncated so the run stops exactly at stopAt. Under the sharded strategy
// the lanes' workers run only for the duration of the call.
//
// Request rules: a request never exceeds the current job's remaining slice
// or the distance to stopAt. Under the serial strategy a block source is
// read in place through NextBlock, and any other source through NextBatch
// into the machine's batch buffer, capped at serialChunk while only one job
// is live; the sharded strategy reads every source through NextBatch into a
// pool buffer.
func (m *Machine) RunUntil(stopAt uint64) bool {
	s := m.sched
	if s == nil {
		panic("vmm: RunUntil without StartRun")
	}
	ex, sh := s.ex, s.shards
	if sh != nil {
		sh.start()
		defer sh.stop(ex)
	}
	for s.remaining > 0 && ex.now < stopAt {
		j := s.live[s.jobIdx]
		if j.done {
			s.advance()
			continue
		}
		want := s.sliceLeft
		if lim := stopAt - ex.now; lim < uint64(want) {
			want = int(lim)
		}
		var req []trace.Access
		switch {
		case sh != nil:
			req = sh.read(j, want)
		case j.block != nil:
			req = j.block.NextBlock(want)
		default:
			if s.remaining == 1 {
				want = min(want, serialChunk)
			}
			buf := m.batch()
			req = buf[:j.stream.NextBatch(buf[:want])]
		}
		if len(req) == 0 {
			s.finish(j)
			s.advance()
			continue
		}
		s.sliceLeft -= len(req)
		j.accesses += uint64(len(req))
		s.exec(j, req)
		if s.sliceLeft == 0 {
			s.advance()
		}
	}
	m.accessCount = ex.now
	return s.remaining == 0
}

// exec executes one request of the current job, cutting it at policy-tick
// boundaries: the global clock only advances by executing accesses, so the
// distance to the next tick bounds a segment that needs no per-access tick
// check. Serially each segment runs inline; sharded, it is dispatched to the
// job's lane and the tick waits for the epoch barrier.
func (s *sched) exec(j *liveJob, req []trace.Access) {
	ex, sh := s.ex, s.shards
	m := ex.m
	buf := req
	for len(req) > 0 {
		seg := req
		if until := m.nextTick - ex.now; uint64(len(seg)) > until {
			seg = seg[:until]
		}
		req = req[len(seg):]
		if sh == nil {
			ex.runSeg(j.Job, seg)
		} else {
			t := shardTask{j: j, seg: seg, start: ex.now}
			if len(req) == 0 {
				t.buf = buf
			}
			sh.dispatch(s.jobIdx, t)
			ex.now += uint64(len(seg))
		}
		if ex.now >= m.nextTick {
			if sh != nil {
				sh.barrier()
			}
			m.accessCount = ex.now
			ex.flushAllocs()
			m.tick()
		}
	}
}

// finish records j's completion at the moment its stream returns empty.
// Sharded, the record must observe all of the group's prior work, so it
// runs on the group's lane, behind its queue.
func (s *sched) finish(j *liveJob) {
	j.done = true
	s.remaining--
	if s.shards != nil {
		s.shards.dispatch(s.jobIdx, shardTask{j: j, fin: true})
		return
	}
	s.ex.m.complete(j)
}

// FinishRun drains whatever remains of the run and returns the result —
// byte-identical to what an uninterrupted Run over the same jobs returns,
// regardless of how many RunUntil/checkpoint/restore cycles preceded it.
func (m *Machine) FinishRun() RunResult {
	s := m.sched
	if s == nil {
		panic("vmm: FinishRun without StartRun")
	}
	m.RunUntil(runForever)
	s.ex.flushAllocs()
	if m.cfg.AuditEveryTick {
		m.auditNow("at end of run")
	}
	res := m.collectResult(s.live)
	m.sched = nil
	return res
}
