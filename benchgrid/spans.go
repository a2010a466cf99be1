package main

import (
	"fmt"
	"time"

	"pccsim/internal/mem"
	"pccsim/internal/obs"
	"pccsim/internal/trace"
	"pccsim/internal/vmm"
	"pccsim/internal/workloads"
)

// Span names. Every span of a rebuilt cell descends from its "cell" root;
// "gen" nests under "record", and "decode", "policy.tick" and
// "policy.fault" nest under "run".
const (
	spanCell   = "cell"
	spanSetup  = "setup"
	spanRecord = "record"
	spanGen    = "gen"
	spanRun    = "run"
	spanDecode = "decode"
	spanTick   = "policy.tick"
	spanFault  = "policy.fault"
)

// span is one timed interval, in nanoseconds since the recorder's epoch.
type span struct {
	Cell   int    `json:"cell"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a cell's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A cell runs on one
// goroutine (machines are built with serial shards), so the open-span stack
// gives every span its parent without locking.
type recorder struct {
	epoch time.Time
	cell  int
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Cell: r.cell, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// selfNS returns each span's self time: its duration minus the time its
// children cover. Children of one span never overlap, because a cell runs
// on a single goroutine.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// genStream times the live workload stream that trace.RecordBlocks drains,
// so the record span splits into generation ("gen") and encoding (self).
type genStream struct {
	src trace.Stream
	bs  trace.BatchStream
	rec *recorder
}

func newGenStream(src trace.Stream, rec *recorder) *genStream {
	return &genStream{src: src, bs: trace.Batched(src), rec: rec}
}

func (g *genStream) Next() (trace.Access, bool) {
	id := g.rec.begin(spanGen)
	a, ok := g.bs.Next()
	g.rec.end(id)
	return a, ok
}

func (g *genStream) NextBatch(buf []trace.Access) int {
	id := g.rec.begin(spanGen)
	n := g.bs.NextBatch(buf)
	g.rec.end(id)
	return n
}

// Close releases the live stream's producer goroutine.
func (g *genStream) Close() { workloads.CloseStream(g.src) }

// decodeStream times a recording's replay. It stays a trace.BlockSource, so
// Machine.Run keeps the zero-copy block path it takes for untraced replays.
type decodeStream struct {
	bs  trace.BlockSource
	rec *recorder
}

var _ trace.BlockSource = (*decodeStream)(nil)

func (d *decodeStream) Next() (trace.Access, bool) {
	id := d.rec.begin(spanDecode)
	a, ok := d.bs.Next()
	d.rec.end(id)
	return a, ok
}

func (d *decodeStream) NextBatch(buf []trace.Access) int {
	id := d.rec.begin(spanDecode)
	n := d.bs.NextBatch(buf)
	d.rec.end(id)
	return n
}

func (d *decodeStream) NextBlock(max int) []trace.Access {
	id := d.rec.begin(spanDecode)
	b := d.bs.NextBlock(max)
	d.rec.end(id)
	return b
}

func (d *decodeStream) DecodeBlock(buf []trace.Access) int {
	id := d.rec.begin(spanDecode)
	n := d.bs.DecodeBlock(buf)
	d.rec.end(id)
	return n
}

// timedPolicy times a vmm.Policy's Tick and OnFault. It is never installed
// bare: wrapPolicy embeds it in a type that also forwards exactly the
// optional interfaces of the wrapped policy, because the machine picks code
// paths from them (BaseFaultOnly selects the devirtualized fault path and
// gates sharding; the others feed Metrics, the auditor, teardown and
// snapshots).
type timedPolicy struct {
	inner vmm.Policy
	rec   *recorder
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) OnFault(m *vmm.Machine, p *vmm.Process, addr mem.VirtAddr) mem.PageSize {
	id := t.rec.begin(spanFault)
	sz := t.inner.OnFault(m, p, addr)
	t.rec.end(id)
	return sz
}

func (t *timedPolicy) Tick(m *vmm.Machine) {
	id := t.rec.begin(spanTick)
	t.inner.Tick(m)
	t.rec.end(id)
}

// Forwarders, one per optional policy interface.
type (
	baseFaultOnly struct{}
	publisher     struct{ p vmm.MetricsPublisher }
	auditor       struct{ a vmm.PolicyAuditor }
	processReaper struct{ r vmm.ProcessReaper }
	spaceReaper   struct{ r vmm.AddressSpaceReaper }
	stateful      struct{ s vmm.StatefulPolicy }
)

func (baseFaultOnly) BaseFaultOnly()                        {}
func (f publisher) PublishMetrics(s obs.Snapshot)           { f.p.PublishMetrics(s) }
func (f auditor) AuditPolicy(m *vmm.Machine) []string       { return f.a.AuditPolicy(m) }
func (f processReaper) OnProcessExit(p *vmm.Process)        { f.r.OnProcessExit(p) }
func (f spaceReaper) OnAddressSpaceTeardown(p *vmm.Process) { f.r.OnAddressSpaceTeardown(p) }
func (f stateful) PolicyState() any                         { return f.s.PolicyState() }
func (f stateful) RestorePolicyState(m *vmm.Machine, st any) error {
	return f.s.RestorePolicyState(m, st)
}

// Optional-interface bits, as policyCaps reports them.
const (
	capBaseFaultOnly = 1 << iota
	capPublisher
	capAuditor
	capProcessReaper
	capSpaceReaper
	capStateful
)

// policyCaps returns the set of optional vmm interfaces p implements.
func policyCaps(p vmm.Policy) int {
	caps := 0
	if _, ok := p.(vmm.BaseFaultOnly); ok {
		caps |= capBaseFaultOnly
	}
	if _, ok := p.(vmm.MetricsPublisher); ok {
		caps |= capPublisher
	}
	if _, ok := p.(vmm.PolicyAuditor); ok {
		caps |= capAuditor
	}
	if _, ok := p.(vmm.ProcessReaper); ok {
		caps |= capProcessReaper
	}
	if _, ok := p.(vmm.AddressSpaceReaper); ok {
		caps |= capSpaceReaper
	}
	if _, ok := p.(vmm.StatefulPolicy); ok {
		caps |= capStateful
	}
	return caps
}

// wrapPolicy returns p behind a timedPolicy whose method set carries exactly
// p's optional interfaces. Go cannot add methods at run time, so there is
// one wrapper type per interface set the repository's policies have:
// Baseline, AllHuge, PCCEngine, HawkEye and LinuxTHP, in that order below.
func wrapPolicy(p vmm.Policy, rec *recorder) (vmm.Policy, error) {
	t := &timedPolicy{inner: p, rec: rec}
	pub, _ := p.(vmm.MetricsPublisher)
	aud, _ := p.(vmm.PolicyAuditor)
	pr, _ := p.(vmm.ProcessReaper)
	sr, _ := p.(vmm.AddressSpaceReaper)
	st, _ := p.(vmm.StatefulPolicy)
	// The interfaces PCCEngine, HawkEye and LinuxTHP all implement.
	const shared = capPublisher | capProcessReaper | capSpaceReaper | capStateful
	switch policyCaps(p) {
	case capBaseFaultOnly:
		return struct {
			*timedPolicy
			baseFaultOnly
		}{t, baseFaultOnly{}}, nil
	case 0:
		return struct{ *timedPolicy }{t}, nil
	case shared | capBaseFaultOnly | capAuditor:
		return struct {
			*timedPolicy
			baseFaultOnly
			publisher
			auditor
			processReaper
			spaceReaper
			stateful
		}{t, baseFaultOnly{}, publisher{pub}, auditor{aud}, processReaper{pr}, spaceReaper{sr}, stateful{st}}, nil
	case shared | capBaseFaultOnly:
		return struct {
			*timedPolicy
			baseFaultOnly
			publisher
			processReaper
			spaceReaper
			stateful
		}{t, baseFaultOnly{}, publisher{pub}, processReaper{pr}, spaceReaper{sr}, stateful{st}}, nil
	case shared:
		return struct {
			*timedPolicy
			publisher
			processReaper
			spaceReaper
			stateful
		}{t, publisher{pub}, processReaper{pr}, spaceReaper{sr}, stateful{st}}, nil
	}
	return nil, fmt.Errorf("benchgrid: no timing wrapper for policy %s (optional interfaces %06b)", p.Name(), policyCaps(p))
}
