package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceFromEdges is the comparison-sort CSR construction FromEdges
// replaced: scatter the kept edges in input order, then sort every
// adjacency list. It is the oracle for the counting-sort build.
func referenceFromEdges(n int, edges []Edge) *CSR {
	g := &CSR{N: n}
	outDeg := make([]uint64, n+1)
	inDeg := make([]uint64, n+1)
	kept := 0
	for _, e := range edges {
		if e.Src == e.Dst || int(e.Src) >= n || int(e.Dst) >= n {
			continue
		}
		outDeg[e.Src+1]++
		inDeg[e.Dst+1]++
		kept++
	}
	for i := 0; i < n; i++ {
		outDeg[i+1] += outDeg[i]
		inDeg[i+1] += inDeg[i]
	}
	g.OutIndex = outDeg
	g.InIndex = inDeg
	g.OutNeighbor = make([]uint32, kept)
	g.InNeighbor = make([]uint32, kept)
	outPos := make([]uint64, n)
	inPos := make([]uint64, n)
	for _, e := range edges {
		if e.Src == e.Dst || int(e.Src) >= n || int(e.Dst) >= n {
			continue
		}
		g.OutNeighbor[g.OutIndex[e.Src]+outPos[e.Src]] = e.Dst
		outPos[e.Src]++
		g.InNeighbor[g.InIndex[e.Dst]+inPos[e.Dst]] = e.Src
		inPos[e.Dst]++
	}
	for u := 0; u < n; u++ {
		out := g.Out(uint32(u))
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		in := g.In(uint32(u))
		sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	}
	return g
}

// referenceDBG is the sort.SliceStable degree-based grouping
// DegreeBasedGrouping replaced, built on referenceFromEdges.
func referenceDBG(g *CSR) (*CSR, []uint32) {
	type vd struct {
		v   uint32
		deg uint64
	}
	vs := make([]vd, g.N)
	for u := 0; u < g.N; u++ {
		vs[u] = vd{v: uint32(u), deg: g.OutDegree(uint32(u)) + g.InDegree(uint32(u))}
	}
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].deg > vs[j].deg })
	remap := make([]uint32, g.N)
	for newID, e := range vs {
		remap[e.v] = uint32(newID)
	}
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.N; u++ {
		for _, v := range g.Out(uint32(u)) {
			edges = append(edges, Edge{Src: remap[u], Dst: remap[v]})
		}
	}
	return referenceFromEdges(g.N, edges), remap
}

func csrEqual(a, b *CSR) bool {
	return a.N == b.N &&
		slices.Equal(a.OutIndex, b.OutIndex) && slices.Equal(a.OutNeighbor, b.OutNeighbor) &&
		slices.Equal(a.InIndex, b.InIndex) && slices.Equal(a.InNeighbor, b.InNeighbor)
}

// randomEdges draws an edge list over n vertices that exercises every
// construction corner: heavy duplication (endpoints from a small pool),
// self-loops, and endpoints at or past n.
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	pool := 1 + rng.Intn(n+2)
	edges := make([]Edge, m)
	for i := range edges {
		switch rng.Intn(8) {
		case 0:
			v := uint32(rng.Intn(n + 3))
			edges[i] = Edge{v, v}
		case 1:
			edges[i] = Edge{uint32(rng.Intn(n + 3)), uint32(n + rng.Intn(3))}
		case 2:
			edges[i] = Edge{uint32(n + rng.Intn(1<<20)), uint32(rng.Intn(n))}
		case 3, 4:
			edges[i] = Edge{uint32(rng.Intn(pool)), uint32(rng.Intn(pool))}
		default:
			edges[i] = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
		}
	}
	return edges
}

func TestFromEdgesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][2]int{{1, 0}, {1, 5}, {2, 0}, {3, 40}, {50, 0}}
	for i := 0; i < 300; i++ {
		cases = append(cases, [2]int{1 + rng.Intn(64), rng.Intn(400)})
	}
	for _, c := range cases {
		n, m := c[0], c[1]
		edges := randomEdges(rng, n, m)
		got, want := FromEdges(n, edges), referenceFromEdges(n, edges)
		if !csrEqual(got, want) {
			t.Fatalf("n=%d edges=%v:\n got %+v\nwant %+v", n, edges, got, want)
		}
		gotG, gotR := DegreeBasedGrouping(got)
		wantG, wantR := referenceDBG(want)
		if !csrEqual(gotG, wantG) || !slices.Equal(gotR, wantR) {
			t.Fatalf("DBG n=%d edges=%v:\n got %+v remap %v\nwant %+v remap %v",
				n, edges, gotG, gotR, wantG, wantR)
		}
	}
	if g := FromEdges(0, nil); !csrEqual(g, referenceFromEdges(0, nil)) {
		t.Fatalf("empty graph: %+v", g)
	}
}

// csrDigest hashes a CSR's vertex count and four arrays, little-endian, in
// the order N, OutIndex, InIndex, OutNeighbor, InNeighbor.
func csrDigest(g *CSR) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(g.N))
	h.Write(b[:])
	for _, s := range [][]uint64{g.OutIndex, g.InIndex} {
		for _, x := range s {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	for _, s := range [][]uint32{g.OutNeighbor, g.InNeighbor} {
		for _, x := range s {
			binary.LittleEndian.PutUint32(b[:4], x)
			h.Write(b[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func remapDigest(r []uint32) string {
	h := sha256.New()
	var b [4]byte
	for _, x := range r {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigestsPinned pins the generated datasets byte for byte. The
// digests were recorded with the comparison-sort construction, before the
// counting-sort build replaced it, so they prove the two agree on real
// inputs rather than restating the current output.
func TestGeneratorDigestsPinned(t *testing.T) {
	kron := Kronecker(15, 16, 42)
	sorted, remap := DegreeBasedGrouping(kron)
	for _, c := range []struct{ name, got, want string }{
		{"Kronecker(15,16,42)", csrDigest(kron), "2555bf02bab8b1f7f392c1aac8af74b082c29d49579531bb0eef27769ed85f8b"},
		{"DBG(Kronecker(15,16,42))", csrDigest(sorted), "f53b8d96643ddf51f8dbfcfac93afb3e03092e921cadde9503d8633fdfc9757c"},
		{"DBG(Kronecker(15,16,42)) remap", remapDigest(remap), "9605a25cb0e841bd3373d17c6ba1652226fea2e817b5a16b6c4383a01146f195"},
		{"SocialNetwork(4096,16,43)", csrDigest(SocialNetwork(1<<12, 16, 43)), "3282dde1a1ae3ecb448474ad4b73f02bc9ac8205dd30fe3f189eaba7a62e977a"},
		{"WebGraph(4096,16,44)", csrDigest(WebGraph(1<<12, 16, 44)), "c1017f7ea0f7128184dd779fa9ff41296f864fa18460b2bfc65b09ca2ff80bff"},
	} {
		if c.got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, c.got, c.want)
		}
	}
}
