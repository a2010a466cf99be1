package tlb

import (
	"math/rand"
	"testing"

	"pccsim/internal/mem"
)

// BenchmarkHierarchyHit measures the L1-hit fast path.
func BenchmarkHierarchyHit(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.Translate(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Translate(1, 0)
	}
}

// BenchmarkTLBAccess measures the hierarchy under the mix real streams
// produce: long same-page runs (the MRU fast path), a strided warm working
// set (set scans that hit), and occasional capacity misses with fills.
func BenchmarkTLBAccess(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	var vpns []mem.PageNum
	for p := 0; p < 256; p++ {
		for rep := 0; rep < 8; rep++ {
			vpns = append(vpns, mem.PageNum(p))
		}
	}
	for i := 0; i < 64; i++ {
		vpns = append(vpns, mem.PageNum(1<<18+i<<12))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Translate(vpns[i%len(vpns)], 0)
	}
}

// BenchmarkHierarchyThrash measures lookup+fill under a working set far
// beyond capacity (the graph-workload regime).
func BenchmarkHierarchyThrash(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	rng := rand.New(rand.NewSource(1))
	vpns := make([]mem.PageNum, 1<<14)
	for i := range vpns {
		vpns[i] = mem.PageNum(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Translate(vpns[i%len(vpns)], 0)
	}
}

// BenchmarkTranslateMiss measures the miss path a graph kernel exercises:
// a Table-2 hierarchy under a 4KB working set of 4096 pages — four times
// the L2's 1024 entries — drawn with a skew toward a hot quarter (the
// high-degree vertices), so nearly every call misses the L1 and ends as an
// L2 hit or a full miss that fills both levels.
func BenchmarkTranslateMiss(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	rng := rand.New(rand.NewSource(1))
	const pages = 4096
	vpns := make([]mem.PageNum, 1<<16)
	for i := range vpns {
		p := rng.Intn(pages)
		if rng.Intn(2) == 0 {
			p = rng.Intn(pages / 4)
		}
		vpns[i] = mem.PageNum(1<<20 + p)
	}
	for _, v := range vpns {
		h.Translate(v, 0)
	}
	h.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Translate(vpns[i%len(vpns)], 0)
	}
	b.StopTimer()
	if a := h.Accesses(); a > 0 {
		l1 := h.L1(mem.Page4K).Stats()
		b.ReportMetric(float64(l1.Misses)/float64(a), "l1miss/op")
		b.ReportMetric(h.MissRate(), "walks/op")
	}
}
