package vmm

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"

	"pccsim/internal/mem"
	"pccsim/internal/metrics"
	"pccsim/internal/tlb"
	"pccsim/internal/trace"
)

// Job binds a process to its access stream and the cores its threads run
// on: thread t executes on Cores[t%len(Cores)].
type Job struct {
	Proc   *Process
	Stream trace.Stream
	Cores  []int
}

// jobSlice is how many accesses one job advances before the scheduler
// rotates to the next live job, simulating concurrent execution of multiple
// processes on a shared clock.
const jobSlice = 4096

// BaseFaultOnly marks policies whose OnFault always returns mem.Page4K and
// has no side effects. The machine uses it two ways: the fault path skips
// the interface call entirely (the dispatch is resolved once per machine),
// and Run may execute independent job groups on separate OS threads, since
// no per-access fault can ever allocate huge pages or trigger a cross-core
// shootdown — all cross-core machinery then happens at tick barriers.
type BaseFaultOnly interface {
	BaseFaultOnly()
}

// RunResult summarizes one simulation run.
type RunResult struct {
	// Cycles is the modeled wall time: the max core cycle count.
	Cycles float64
	// Accesses is the total memory references simulated.
	Accesses uint64
	// Walks is the total page table walks (all cores).
	Walks uint64
	// L1Misses counts accesses that missed the L1 TLB (hit L2 or walked).
	L1Misses uint64
	// PTWRate is Walks/Accesses, the paper's "PTW %".
	PTWRate float64
	// L1MissRate is L1Misses/Accesses, the paper's "TLB Miss %".
	L1MissRate float64
	// StallCycles aggregates promotion/fault machinery time across cores.
	StallCycles float64
	// BackgroundCycles is the async promotion work performed off the
	// critical path.
	BackgroundCycles float64
	// HugePages2M is the total 2MB mappings live at completion.
	HugePages2M int
	// HugePages1G is the total 1GB mappings live at completion.
	HugePages1G int
	// Promotions and Demotions across all processes.
	Promotions uint64
	Demotions  uint64
	// PerProc holds each process's completion snapshot in job order.
	PerProc []ProcResult
}

// ProcResult is one process's completion record.
type ProcResult struct {
	Name          string
	RuntimeCycles float64
	Accesses      uint64
	HugePages2M   int
	HugePages1G   int
	Promotions    uint64
	Footprint     uint64
}

// liveJob is a Job being drained by the scheduler.
type liveJob struct {
	*Job
	stream trace.BatchStream
	// block is non-nil when the job's stream hands out decoded columnar
	// blocks in place (trace.BlockSource): the serial strategy then
	// consumes those slices directly instead of copying through the
	// machine's batch buffer.
	block    trace.BlockSource
	accesses uint64
	done     bool
}

// executor owns the per-access mutable state of one execution lane: the
// global access clock position, the deferred base-page allocation counter,
// and a flattened copy of the cost model so the kernels never chase the
// config pointer. The scheduler's own executor holds the global clock and
// executes every segment under the serial strategy; the sharded strategy
// gives each lane its own, setting now per dispatched segment so every
// access observes exactly the clock value the serial interleaving would
// have given it. Deferred allocations are pure commutative counters and
// are flushed into physmem at every policy tick and at the end of a run.
type executor struct {
	m          *Machine
	now        uint64 // global simulated-access clock (pre-increment)
	baseAllocs uint64 // base-page allocations not yet applied to physmem

	// Flattened per-machine constants (set once per executor).
	cBase     float64 // Config.Cost.BaseCPA
	cL2Hit    float64 // Config.Cost.L2TLBHit
	cWalkBase float64 // Config.Cost.WalkBase
	cWalkRef  float64 // Config.Cost.WalkRef
	mlpOn     bool    // Config.PTWMLPWidth > 1
	coldOff   bool    // Config.DisableColdFilter

	// effCPA is the running segment's base cycles-per-access (the process's
	// BaseCPA or the config default), resolved once per segment in runSeg.
	effCPA float64
}

// newExecutor builds an execution lane with the machine's cost model
// flattened in.
func (m *Machine) newExecutor() *executor {
	return &executor{
		m:         m,
		cBase:     m.cfg.Cost.BaseCPA,
		cL2Hit:    m.cfg.Cost.L2TLBHit,
		cWalkBase: m.cfg.Cost.WalkBase,
		cWalkRef:  m.cfg.Cost.WalkRef,
		mlpOn:     m.cfg.PTWMLPWidth > 1,
		coldOff:   m.cfg.DisableColdFilter,
	}
}

// flushAllocs applies the deferred base-page allocation count to physmem.
func (ex *executor) flushAllocs() {
	if ex.baseAllocs > 0 {
		ex.m.phys.AllocBase(ex.baseAllocs)
		ex.baseAllocs = 0
	}
}

// Run drives the machine until every job's stream is exhausted: it is
// StartRun followed by FinishRun with no stop in between, so it runs the
// one scheduler (see RunUntil) under whichever execution strategy StartRun
// picks. Run panics on the error StartRun would return — a core index out
// of range, a run already in progress, or a job list that does not match a
// scheduler position staged by RestoreState. State accumulates across Run
// calls on one machine.
//
// When Config.Shards > 1 and the job set splits into independent groups
// (sharing no cores and no processes) under a base-fault-only policy with
// NUMA off, the groups execute on separate goroutines between policy ticks;
// all cross-group machinery runs at deterministic epoch barriers, so the
// output stays byte-identical at every shard count.
func (m *Machine) Run(jobs ...*Job) RunResult {
	if err := m.StartRun(jobs...); err != nil {
		panic(err)
	}
	return m.FinishRun()
}

// collectResult aggregates the completion summary over the run's jobs
// (FinishRun returns it).
func (m *Machine) collectResult(live []*liveJob) RunResult {
	res := RunResult{
		Accesses:         m.accessCount,
		BackgroundCycles: m.BackgroundCycles,
	}
	for _, c := range m.cores {
		if c.Cycles > res.Cycles {
			res.Cycles = c.Cycles
		}
		res.StallCycles += c.StallCycles
		res.Walks += c.TLB.Walks()
		res.L1Misses += c.TLB.L1Misses()
	}
	res.PTWRate = metrics.Rate(res.Walks, res.Accesses)
	res.L1MissRate = metrics.Rate(res.L1Misses, res.Accesses)
	for ji, j := range live {
		p := j.Proc
		res.HugePages2M += p.HugePages2M()
		res.HugePages1G += p.HugePages1G()
		res.Promotions += p.Promotions2M + p.Promotions1G
		res.Demotions += p.Demotions
		res.PerProc = append(res.PerProc, ProcResult{
			Name:          p.Name,
			RuntimeCycles: p.RuntimeCycles,
			Accesses:      live[ji].accesses,
			HugePages2M:   p.HugePages2M(),
			HugePages1G:   p.HugePages1G(),
			Promotions:    p.Promotions2M,
			Footprint:     p.Footprint(),
		})
	}
	return res
}

// serialChunk caps a serial request from a non-block source while only one
// job is live. With no other job to rotate to, any chunking yields the
// identical access sequence — and a small buffer keeps the fill-then-execute
// round trip resident in L1 instead of streaming 64KB batches through L2.
const serialChunk = 512

// batch returns the machine's reusable batch-drain buffer, allocating it on
// first use (block-source jobs never need it).
func (m *Machine) batch() []trace.Access {
	if m.batchBuf == nil {
		m.batchBuf = make([]trace.Access, jobSlice)
	}
	return m.batchBuf
}

// shardGroups partitions the jobs into independent groups (union-find over
// shared cores and shared processes) and reports whether sharded execution
// is both enabled and worthwhile. A group count of 1 means "run serial" —
// either sharding is off, a gate fails, or everything is connected.
func (m *Machine) shardGroups(live []*liveJob) ([]int, int) {
	if m.cfg.Shards <= 1 || len(live) < 2 || m.numa != nil || !m.policyBase {
		return nil, 1
	}
	parent := make([]int, len(live))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	coreOwner := map[int]int{}
	procOwner := map[*Process]int{}
	for i, j := range live {
		for _, c := range j.Cores {
			if o, ok := coreOwner[c]; ok {
				union(i, o)
			} else {
				coreOwner[c] = i
			}
		}
		if o, ok := procOwner[j.Proc]; ok {
			union(i, o)
		} else {
			procOwner[j.Proc] = i
		}
	}
	groupOf := make([]int, len(live))
	next := 0
	id := map[int]int{}
	for i := range live {
		r := find(i)
		g, ok := id[r]
		if !ok {
			g = next
			id[r] = g
			next++
		}
		groupOf[i] = g
	}
	if next < 2 {
		return nil, 1
	}
	return groupOf, next
}

// shardLanes is the sharded execution strategy. Independent job groups (see
// shardGroups) run on up to Config.Shards lanes, each an executor drained by
// one worker goroutine. The scheduler walks the serial schedule unchanged;
// instead of executing a tick-free segment inline it dispatches it, tagged
// with its global clock position, to the lane owning the job's group. A lane
// executes its segments in dispatch order and distinct groups share no
// mutable state between barriers, so every access observes exactly the
// state and clock it would have observed serially. Workers live for one
// RunUntil call (start/stop), so an abandoned run leaves no goroutine behind.
type shardLanes struct {
	laneOf []int // job index → lane
	lanes  []*executor
	// pool holds the request buffers, jobSlice accesses each: two per lane
	// (one executing, one queued) plus two for the scheduler to fill, so
	// reading the next request overlaps the lanes' simulation.
	pool     chan []trace.Access
	queues   []chan shardTask // one per lane; nil outside RunUntil
	inflight sync.WaitGroup   // dispatched-but-unfinished tasks (the epoch barrier)
	workers  sync.WaitGroup   // worker goroutine lifecycle
}

// shardTask is one unit of lane work: a tick-free segment of j's stream
// starting at global clock start, or (fin) j's completion record. buf is set
// on the last segment cut from a pool request buffer, which goes back to the
// pool once that segment has run.
type shardTask struct {
	j     *liveJob
	seg   []trace.Access
	start uint64
	buf   []trace.Access
	fin   bool
}

// newShardLanes builds the lanes and request buffers for groups job groups.
func (m *Machine) newShardLanes(groupOf []int, groups int) *shardLanes {
	nw := min(m.cfg.Shards, groups)
	sh := &shardLanes{
		laneOf: make([]int, len(groupOf)),
		lanes:  make([]*executor, nw),
		pool:   make(chan []trace.Access, nw*2+2),
	}
	for ji, g := range groupOf {
		sh.laneOf[ji] = g % nw
	}
	for w := range sh.lanes {
		sh.lanes[w] = m.newExecutor()
	}
	for i := 0; i < cap(sh.pool); i++ {
		sh.pool <- make([]trace.Access, jobSlice)
	}
	return sh
}

// start launches one worker goroutine per lane.
func (sh *shardLanes) start() {
	sh.queues = make([]chan shardTask, len(sh.lanes))
	for w, ex := range sh.lanes {
		// Room for many tick-cut segments and completion records, so the
		// scheduler blocks on the pool, not on a lane's queue.
		q := make(chan shardTask, 64)
		sh.queues[w] = q
		sh.workers.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("pccsim", "shard-worker", "worker", strconv.Itoa(w)), func(context.Context) {
			defer sh.workers.Done()
			for t := range q {
				if t.fin {
					ex.m.complete(t.j)
				} else {
					ex.now = t.start
					ex.runSeg(t.j.Job, t.seg)
				}
				if t.buf != nil {
					sh.pool <- t.buf
				}
				sh.inflight.Done()
			}
		})
	}
}

// stop lets the workers drain their queues and exit, then moves the lanes'
// unflushed base-page allocations into pending without applying them: a stop
// is not an epoch barrier, so they stay deferred exactly as the serial
// strategy's would, and State() records the same PendingAllocs.
func (sh *shardLanes) stop(pending *executor) {
	for _, q := range sh.queues {
		close(q)
	}
	sh.workers.Wait()
	sh.queues = nil
	for _, ex := range sh.lanes {
		pending.baseAllocs += ex.baseAllocs
		ex.baseAllocs = 0
	}
}

// dispatch queues t on the lane owning job ji.
func (sh *shardLanes) dispatch(ji int, t shardTask) {
	sh.inflight.Add(1)
	sh.queues[sh.laneOf[ji]] <- t
}

// barrier waits for every dispatched task and applies the lanes' deferred
// base-page allocations.
func (sh *shardLanes) barrier() {
	sh.inflight.Wait()
	for _, ex := range sh.lanes {
		ex.flushAllocs()
	}
}

// read fills a pool buffer with up to want accesses of j's stream. A block
// replay decodes an aligned request straight into the buffer.
func (sh *shardLanes) read(j *liveJob, want int) []trace.Access {
	buf := <-sh.pool
	n := j.stream.NextBatch(buf[:want])
	if n == 0 {
		sh.pool <- buf
	}
	return buf[:n]
}

// tick runs the policy-tick machinery at an epoch barrier, after the caller
// has synced m.accessCount and applied every deferred allocation: pressure,
// process lifecycle, the policy's Tick and the optional audit.
func (m *Machine) tick() {
	m.nextTick += m.cfg.PromotionInterval
	m.pressureTick()
	m.lifecycleTick()
	if m.policy != nil {
		m.policy.Tick(m)
	}
	if m.cfg.AuditEveryTick {
		m.auditNow("after policy tick")
	}
}

// complete records j's completion: its process is finished, with the max
// cycle count over the job's cores as its runtime.
func (m *Machine) complete(j *liveJob) {
	j.Proc.finished = true
	j.Proc.RuntimeCycles = m.maxCycles(j.Cores)
}

// runSeg advances one tick-free segment of j: single-core segments dispatch
// to the machine's monomorphized kernel (resolved once at machine build —
// see kernels.go), multi-core segments run the per-access step with the
// thread-to-core dispatch inline. Deferred per-segment state — the cores'
// buffered PCC records — flushes on exit, so everything that runs between
// segments (ticks, audits, state capture) observes fully-applied state.
func (ex *executor) runSeg(j *Job, seg []trace.Access) {
	if ex.effCPA = j.Proc.BaseCPA; ex.effCPA == 0 {
		ex.effCPA = ex.cBase
	}
	if len(j.Cores) == 1 {
		c := ex.m.cores[j.Cores[0]]
		ex.m.kern(ex, c, j.Proc, seg)
		c.flushPCC()
		return
	}
	for i := range seg {
		ex.step(ex.m.cores[j.Cores[seg[i].Thread%len(j.Cores)]], j.Proc, seg[i].Addr)
	}
	for _, ci := range j.Cores {
		ex.m.cores[ci].flushPCC()
	}
}

// maxCycles returns the max cycle count across the given core IDs.
func (m *Machine) maxCycles(cores []int) float64 {
	mx := 0.0
	for _, ci := range cores {
		if c := m.cores[ci].Cycles; c > mx {
			mx = c
		}
	}
	return mx
}

// step simulates one memory access by process p on core c — the multi-core
// per-access path, probing the register line and both persistent-table
// classes before falling back to the full pipeline.
func (ex *executor) step(c *Core, p *Process, addr mem.VirtAddr) {
	vpn := mem.PageNum(addr >> 12)
	proc := int32(p.ID)
	if c.l0Has && c.l0Proc == proc && c.l0Page4K == vpn {
		// Register-line hit: same core, process and 4KB page as this
		// core's previous full translation, so the translation is the MRU
		// way of its L1 set and the full pipeline below would change
		// nothing but counters.
		ex.now++
		c.Accesses++
		c.TLB.CountL1HitsIndexed(int(c.l0SI), 1)
		c.Cycles += c.l0Cost
		if ex.mlpOn {
			c.walkBurst = 0 // an L1 hit, even filter-served, breaks a walk burst
		}
		return
	}
	if s := c.tt.slot4K(vpn); s.gen == c.tt.gen && s.page == vpn && s.proc == proc &&
		c.TLB.StampL1(0, int(s.way), vpn) {
		// Table 4K hit: the L1-4K way still holds the page and has been
		// restamped.
		ex.now++
		c.Accesses++
		c.TLB.CountL1HitsIndexed(0, 1)
		c.Cycles += s.cost
		c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, 0, proc, vpn, s.cost
		if ex.mlpOn {
			c.walkBurst = 0
		}
		return
	}
	hpn := mem.PageNum(addr >> 21)
	if s := c.tt.slot2M(hpn); s.gen == c.tt.gen && s.page == hpn && s.proc == proc &&
		c.TLB.StampL1(1, int(s.way), hpn) {
		// Table 2M hit: an L1-2M hit; only the 4KB page's touched bit
		// still needs recording.
		ex.now++
		c.Accesses++
		c.TLB.CountL1HitsIndexed(1, 1)
		c.Cycles += s.cost
		v := p.vmaOf(addr)
		v.touched[uint64(addr-v.r.Start)>>12] = true
		c.l0Has, c.l0SI, c.l0Proc, c.l0Page4K, c.l0Cost = true, 1, proc, vpn, s.cost
		if ex.mlpOn {
			c.walkBurst = 0
		}
		return
	}
	ex.stepFull(c, p, addr)
}

// flushL0Hits folds a run of n deferred filter hits into the counters the
// per-access path would have bumped one at a time.
func (ex *executor) flushL0Hits(c *Core, si int, n uint64) {
	ex.now += n
	c.Accesses += n
	c.TLB.CountL1HitsIndexed(si, n)
	if ex.mlpOn {
		c.walkBurst = 0 // filter-served L1 hits break a walk burst
	}
}

// stepFull is the generic full translation pipeline for one access: VMA
// lookup, fault handling, TLB hierarchy, page table walk and PCC record
// buffering. Machines without NUMA or PTW-MLP run stepFullFast
// (kernels.go) instead, which is this routine with those branches
// monomorphized away.
func (ex *executor) stepFull(c *Core, p *Process, addr mem.VirtAddr) {
	m := ex.m
	ex.now++
	c.Accesses++

	v := p.vmaOf(addr)
	if v == nil {
		panicOutsideVMA(p, addr)
	}
	idx := uint64(addr-v.r.Start) >> 12
	var size mem.PageSize
	var si int
	if st := v.state[idx]; st != stateUnmapped {
		// Monotone bit: store directly (see stepFullFast).
		v.touched[idx] = true
		switch st {
		case state2M:
			size, si = mem.Page2M, 1
		case state1G:
			size, si = mem.Page1G, 2
		default:
			size = mem.Page4K
		}
	} else {
		size, si = ex.faultPath(c, p, v, idx, addr)
	}

	cost := ex.effCPA
	if m.numa != nil {
		cost += m.numa.penalty(p, addr)
	}
	baseCost := cost

	r, way := c.TLB.Translate(tlb.PageNumber(addr, si), si)
	switch r {
	case tlb.HitL1:
		if ex.mlpOn {
			c.walkBurst = 0
		}
	case tlb.HitL2:
		cost += ex.cL2Hit
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
		if ex.mlpOn {
			c.walkBurst = 0
		}
	default: // tlb.Miss → page table walk (Translate already filled)
		info := c.Walker.Walk(p.Table, addr)
		walk := ex.cWalkBase + float64(info.Levels)*ex.cWalkRef
		if w := m.cfg.PTWMLPWidth; w > 1 {
			// PTW MLP model: consecutive walks with no intervening TLB
			// hit are independent (no dependent loads between them in
			// this access model), so the walker overlaps walks 2..w of a
			// burst with the first, charging only the overlap fraction.
			c.walkBurst++
			if c.walkBurst > w {
				c.walkBurst = 1
			} else if c.walkBurst > 1 {
				walk *= m.cfg.PTWMLPOverlap
			}
		}
		cost += walk
		if size == mem.Page2M {
			v.noteUse2M(addr, ex.now)
		}
		ex.recordWalk(c, info, size, addr)
	}
	c.Cycles += cost

	armL0(c, p, addr, si, way, baseCost)
}
