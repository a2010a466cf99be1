package graph

import (
	"testing"
	"testing/quick"
)

func TestFromEdgesBasic(t *testing.T) {
	g := FromEdges(4, []Edge{
		{0, 1}, {0, 2}, {1, 2}, {3, 0},
	})
	if g.N != 4 || g.NumEdges() != 4 {
		t.Fatalf("N=%d M=%d", g.N, g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 {
		t.Errorf("degrees wrong: out0=%d in2=%d", g.OutDegree(0), g.InDegree(2))
	}
	out := g.Out(0)
	if len(out) != 2 || out[0] != 1 || out[1] != 2 {
		t.Errorf("Out(0) = %v", out)
	}
	in := g.In(0)
	if len(in) != 1 || in[0] != 3 {
		t.Errorf("In(0) = %v", in)
	}
}

func TestFromEdgesDropsSelfLoopsAndOutOfRange(t *testing.T) {
	g := FromEdges(3, []Edge{
		{0, 0},  // self loop
		{0, 1},  // kept
		{5, 1},  // out of range src
		{1, 17}, // out of range dst
	})
	if g.NumEdges() != 1 {
		t.Errorf("M = %d, want 1", g.NumEdges())
	}
}

func TestFromEdgesAdjacencySorted(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 4}, {0, 1}, {0, 3}, {0, 2}})
	out := g.Out(0)
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("adjacency not sorted: %v", out)
		}
	}
}

func TestInOutConsistencyProperty(t *testing.T) {
	// Property: sum of out-degrees == sum of in-degrees == edge count,
	// and every out-edge appears as an in-edge.
	f := func(seed int64) bool {
		g := Kronecker(8, 4, seed)
		var outSum, inSum uint64
		for u := 0; u < g.N; u++ {
			outSum += g.OutDegree(uint32(u))
			inSum += g.InDegree(uint32(u))
		}
		if outSum != inSum || outSum != g.NumEdges() {
			return false
		}
		// Spot-check reverse edges for vertex 0's out list.
		for _, v := range g.Out(0) {
			found := false
			for _, u := range g.In(v) {
				if u == 0 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := Kronecker(10, 8, 42)
	b := Kronecker(10, 8, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	for u := 0; u < a.N; u += 100 {
		ao, bo := a.Out(uint32(u)), b.Out(uint32(u))
		if len(ao) != len(bo) {
			t.Fatalf("degree mismatch at %d", u)
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("adjacency mismatch at %d", u)
			}
		}
	}
	c := Kronecker(10, 8, 43)
	if c.NumEdges() == a.NumEdges() {
		// Edge count can coincide; check adjacency differs somewhere.
		same := true
		for u := 0; u < a.N && same; u++ {
			ao, co := a.Out(uint32(u)), c.Out(uint32(u))
			if len(ao) != len(co) {
				same = false
				break
			}
			for i := range ao {
				if ao[i] != co[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestKroneckerPowerLawSkew(t *testing.T) {
	g := Kronecker(12, 16, 1)
	maxDeg := uint64(0)
	var sum uint64
	for u := 0; u < g.N; u++ {
		d := g.OutDegree(uint32(u))
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / float64(g.N)
	if float64(maxDeg) < 20*mean {
		t.Errorf("kronecker skew too weak: max=%d mean=%.1f", maxDeg, mean)
	}
}

func TestKroneckerScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad scale must panic")
		}
	}()
	Kronecker(0, 16, 1)
}

func TestSocialNetworkSkewAndSize(t *testing.T) {
	g := SocialNetwork(1<<12, 8, 7)
	if g.N != 1<<12 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() < uint64(g.N)*6 {
		t.Errorf("too few edges: %d", g.NumEdges())
	}
	maxIn := uint64(0)
	var sum uint64
	for u := 0; u < g.N; u++ {
		d := g.InDegree(uint32(u))
		sum += d
		if d > maxIn {
			maxIn = d
		}
	}
	mean := float64(sum) / float64(g.N)
	if float64(maxIn) < 10*mean {
		t.Errorf("social in-degree skew too weak: max=%d mean=%.1f", maxIn, mean)
	}
}

func TestWebGraphCommunityStructure(t *testing.T) {
	g := WebGraph(1<<12, 8, 7)
	// Most links should stay within the 256-vertex site block.
	intra, total := 0, 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Out(uint32(u)) {
			total++
			if int(u)/256 == int(v)/256 {
				intra++
			}
		}
	}
	if frac := float64(intra) / float64(total); frac < 0.6 {
		t.Errorf("intra-site fraction = %.2f, want >= 0.6", frac)
	}
}

func TestDegreeBasedGrouping(t *testing.T) {
	g := Kronecker(10, 8, 5)
	sorted, remap := DegreeBasedGrouping(g)
	if sorted.N != g.N || sorted.NumEdges() != g.NumEdges() {
		t.Fatalf("DBG changed graph size: %v vs %v", sorted, g)
	}
	if len(remap) != g.N {
		t.Fatalf("remap len = %d", len(remap))
	}
	// New IDs must be a permutation.
	seen := make([]bool, g.N)
	for _, nid := range remap {
		if seen[nid] {
			t.Fatal("remap is not a permutation")
		}
		seen[nid] = true
	}
	// Degrees must be non-increasing in new ID order (stable grouping).
	deg := func(gr *CSR, u int) uint64 {
		return gr.OutDegree(uint32(u)) + gr.InDegree(uint32(u))
	}
	for u := 1; u < sorted.N; u++ {
		if deg(sorted, u) > deg(sorted, u-1) {
			t.Fatalf("degree order violated at %d: %d > %d", u, deg(sorted, u), deg(sorted, u-1))
		}
	}
	// Degree multiset preserved: vertex remap[u] in sorted has u's degree.
	for u := 0; u < g.N; u += 37 {
		if deg(g, u) != deg(sorted, int(remap[u])) {
			t.Fatalf("degree not preserved for %d", u)
		}
	}
}

func TestMaxDegreeVertex(t *testing.T) {
	g := FromEdges(4, []Edge{{2, 0}, {2, 1}, {2, 3}, {0, 1}})
	if got := g.MaxDegreeVertex(); got != 2 {
		t.Errorf("max degree vertex = %d, want 2", got)
	}
}

func TestCSRString(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1}})
	if g.String() == "" {
		t.Error("must stringify")
	}
}

// benchSink keeps the benchmarked constructions from being optimized away.
var benchSink *CSR

// BenchmarkKronecker times generating and building the scale-15 Kronecker
// graph the benchmark grids run on.
func BenchmarkKronecker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = Kronecker(15, 16, 42)
	}
}

// BenchmarkDegreeBasedGrouping times the DBG reorder of that graph, the
// derivation of every "sorted" dataset variant.
func BenchmarkDegreeBasedGrouping(b *testing.B) {
	g := Kronecker(15, 16, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = DegreeBasedGrouping(g)
	}
}
