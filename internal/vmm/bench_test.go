package vmm

import (
	"testing"

	"pccsim/internal/mem"
	"pccsim/internal/physmem"
	"pccsim/internal/trace"
)

// stepPattern builds a deterministic hot/cold access mix over r: a 2MB hot
// prefix revisited at 4KB stride (L1/L2 hits) interleaved with a sparse sweep
// of the whole range (capacity misses and walks) — the graph-workload regime
// the per-access hot path spends its time in.
func stepPattern(r mem.Range) []trace.Access {
	var acc []trace.Access
	hotEnd := r.Start + mem.VirtAddr(2<<20)
	for rep := 0; rep < 4; rep++ {
		for a := r.Start; a < hotEnd; a += mem.VirtAddr(mem.Page4K) {
			acc = append(acc, trace.Access{Addr: a})
		}
		for a := r.Start; a < r.End; a += 1 << 16 {
			acc = append(acc, trace.Access{Addr: a})
		}
	}
	return acc
}

// stepPattern2M round-robins across all 2MB regions of r with a rotating
// in-region offset: with more regions than L1-2M entries every access misses
// L1 and hits L2 — the path that records huge last-use on each access.
func stepPattern2M(r mem.Range) []trace.Access {
	regions := uint64(r.Len()) >> 21
	var acc []trace.Access
	for rep := uint64(0); rep < 8; rep++ {
		off := mem.VirtAddr(rep * uint64(mem.Page4K) * 7 % uint64(mem.Page2M))
		for i := uint64(0); i < regions; i++ {
			acc = append(acc, trace.Access{Addr: r.Start + mem.VirtAddr(i<<21) + off})
		}
	}
	return acc
}

// benchmarkStep measures steady-state per-access simulation cost through
// Machine.Run (vmaOf, mapping-state lookup, TLB hierarchy, walker, PCC).
// With promote set every 2MB region is huge-mapped first, exercising the
// 2MB-path bookkeeping (huge last-use tracking) on every L2 hit and walk.
func benchmarkStep(b *testing.B, promote bool) {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 512 << 21, MovableFillRatio: 0.5}
	m := NewMachine(cfg, nil)
	p := m.AddProcess("bench", testVMA(64), 0)
	r := p.Ranges()[0]
	acc := stepPattern(r)
	if promote {
		acc = stepPattern2M(r)
	}
	// Warm once so the timed loop measures translation, not first-touch
	// faults.
	m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
	if promote {
		for a := r.Start; a < r.End; a += mem.VirtAddr(mem.Page2M) {
			if err := m.Promote2M(p, a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(acc) {
		m.Run(&Job{Proc: p, Stream: trace.Slice(acc)})
	}
}

// BenchmarkStep is the 4KB-mapped hot path: ns/op is ns per simulated access.
func BenchmarkStep(b *testing.B) { benchmarkStep(b, false) }

// BenchmarkStep2M is the same pattern with every region promoted to 2MB.
func BenchmarkStep2M(b *testing.B) { benchmarkStep(b, true) }

// BenchmarkRunStream measures the end-to-end Run pipeline — batch draining,
// tick segmentation, and the per-access step — fed by a live generator
// rather than a materialized slice, the shape every experiment run has.
// ns/op is ns per simulated access.
func BenchmarkRunStream(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 512 << 21, MovableFillRatio: 0.5}
	cfg.PromotionInterval = 100_000
	m := NewMachine(cfg, nil)
	p := m.AddProcess("bench", testVMA(64), 0)
	r := p.Ranges()[0]
	// Warm first-touch faults so the timed run measures translation.
	m.Run(&Job{Proc: p, Stream: trace.Sequential(r.Start, uint64(r.Len()), uint64(mem.Page4K), uint64(r.Len())>>12)})
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(&Job{Proc: p, Stream: trace.Sequential(r.Start, uint64(r.Len()), 64, uint64(b.N))})
}

// hopStream interleaves sequential 64 B-stride sweeps over 2MB arrays, one
// access per array in turn, wrapping inside each array. Array i starts 8MB
// after array i-1, and odd arrays start one 4KB page in: the arrays' 2MB
// pages then share two L1-2M sets and their current 4KB pages two L1-4K
// sets, four ways each, so every access but the first to each page hits
// the L1, and never on the way the previous access stamped — the hop
// pattern of the graph workloads.
type hopStream struct {
	base mem.VirtAddr
	off  uint64 // byte offset of the current round inside each array
	next int    // array of the next access
	left uint64
}

const hopArrays = 8

func (h *hopStream) addr() mem.VirtAddr {
	i := uint64(h.next)
	return h.base + mem.VirtAddr(i<<23+(h.off+i%2<<12)%(1<<21))
}

func (h *hopStream) Next() (trace.Access, bool) {
	var one [1]trace.Access
	if h.NextBatch(one[:]) == 0 {
		return trace.Access{}, false
	}
	return one[0], true
}

func (h *hopStream) NextBatch(buf []trace.Access) int {
	n := 0
	for ; n < len(buf) && h.left > 0; n++ {
		buf[n] = trace.Access{Addr: h.addr()}
		h.left--
		if h.next++; h.next == hopArrays {
			h.next, h.off = 0, h.off+64
		}
	}
	return n
}

// benchmarkRunStreamHop runs the hop pattern through Run with every array
// 4KB-mapped or, with promote set, 2MB-mapped. ns/op is ns per simulated
// access.
func benchmarkRunStreamHop(b *testing.B, promote bool) {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 512 << 21, MovableFillRatio: 0.5}
	cfg.PromotionInterval = 100_000
	m := NewMachine(cfg, nil)
	p := m.AddProcess("bench", testVMA(4*hopArrays), 0)
	base := p.Ranges()[0].Start
	for i := 0; i < hopArrays; i++ {
		a := base + mem.VirtAddr(i)<<23
		// Warm first-touch faults so the timed run measures translation.
		m.Run(&Job{Proc: p, Stream: trace.Sequential(a, uint64(mem.Page2M), uint64(mem.Page4K), 512)})
		if promote {
			if err := m.Promote2M(p, a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(&Job{Proc: p, Stream: &hopStream{base: base, left: uint64(b.N)}})
}

// BenchmarkRunStreamHop is the hop pattern with the arrays promoted (2M)
// and 4KB-mapped (4K).
func BenchmarkRunStreamHop(b *testing.B) {
	b.Run("2M", func(b *testing.B) { benchmarkRunStreamHop(b, true) })
	b.Run("4K", func(b *testing.B) { benchmarkRunStreamHop(b, false) })
}

// benchmarkRunSharded measures wall clock for eight independent single-core
// jobs (eight processes, eight cores) at a given shard budget. Shards=1 is
// the serial strategy; Shards=8 runs every group on its own goroutine with
// epoch barriers at policy ticks. Results are byte-identical either way (see
// TestShardEquivalence); only wall clock may differ, by up to the host's
// core count. With replay set, each job's stream is a columnar recording
// replayed block by block instead of a live generator. ns/op is ns per
// simulated access across all jobs.
func benchmarkRunSharded(b *testing.B, shards int, replay bool) {
	cfg := DefaultConfig()
	cfg.Phys = physmem.Config{TotalBytes: 1024 << 21, MovableFillRatio: 0.5}
	cfg.Cores = 8
	cfg.Shards = shards
	cfg.PromotionInterval = 500_000
	m := NewMachine(cfg, nil)
	perJob := uint64(b.N/8) + 1
	var jobs []*Job
	var warm []*Job
	for i := 0; i < 8; i++ {
		p := m.AddProcess("bench", testVMA(16), 0)
		r := p.Ranges()[0]
		warm = append(warm, &Job{
			Proc:   p,
			Stream: trace.Sequential(r.Start, uint64(r.Len()), uint64(mem.Page4K), uint64(r.Len())>>12),
			Cores:  []int{i},
		})
		var st trace.Stream = trace.Sequential(r.Start, uint64(r.Len()), 64, perJob)
		if replay {
			st = trace.RecordBlocks(st, 0).Replay()
		}
		jobs = append(jobs, &Job{Proc: p, Stream: st, Cores: []int{i}})
	}
	// Warm first-touch faults serially so the timed run measures execution.
	m.Run(warm...)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(jobs...)
}

// BenchmarkRunSharded1 is the 8-job workload on the serial strategy.
func BenchmarkRunSharded1(b *testing.B) { benchmarkRunSharded(b, 1, false) }

// BenchmarkRunSharded8 is the same workload with an 8-goroutine shard budget.
func BenchmarkRunSharded8(b *testing.B) { benchmarkRunSharded(b, 8, false) }

// BenchmarkRunShardedReplay is BenchmarkRunSharded8 with every job replayed
// from a columnar recording: the sharded strategy decodes each block
// straight into a pool buffer.
func BenchmarkRunShardedReplay(b *testing.B) { benchmarkRunSharded(b, 8, true) }

// BenchmarkVmaOf measures the VMA lookup alone on a 24-VMA address space with
// run-based locality (the pattern real streams exhibit: long runs inside one
// VMA, occasional jumps).
func BenchmarkVmaOf(b *testing.B) {
	var ranges []mem.Range
	start := mem.VirtAddr(1 << 30)
	for i := 0; i < 24; i++ {
		ranges = append(ranges, mem.Range{Start: start, End: start + 4<<20})
		start += 8 << 20
	}
	p := newProcess(0, "bench", ranges, 0)
	var addrs []mem.VirtAddr
	for i, r := range ranges {
		for a := r.Start; a < r.Start+64<<12; a += mem.VirtAddr(mem.Page4K) {
			addrs = append(addrs, a)
		}
		// One cross-VMA jump per run.
		addrs = append(addrs, ranges[(i+13)%len(ranges)].Start)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.vmaOf(addrs[i%len(addrs)]) == nil {
			b.Fatal("address outside VMAs")
		}
	}
}
