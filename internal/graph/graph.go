// Package graph provides the compressed-sparse-row graph substrate the GAP
// workloads run on: deterministic Kronecker (R-MAT) generation for the
// synthetic power-law network, social- and web-like generators standing in
// for the Twitter and Sd1 Web datasets the paper evaluates (the real crawls
// are multi-GB downloads unavailable offline), and degree-based grouping
// (DBG) reordering, whose sorted/unsorted variants the paper averages over.
package graph

import (
	"fmt"
	"math/rand"
)

// CSR is a directed graph in compressed sparse row form. OutIndex has N+1
// entries; the out-neighbors of u are OutNeighbors[OutIndex[u]:OutIndex[u+1]].
// An inverse (in-edge) view is kept for pull-style algorithms (PageRank).
type CSR struct {
	N           int
	OutIndex    []uint64
	OutNeighbor []uint32
	InIndex     []uint64
	InNeighbor  []uint32
}

// NumEdges returns the directed edge count.
func (g *CSR) NumEdges() uint64 { return uint64(len(g.OutNeighbor)) }

// OutDegree returns the out-degree of u.
func (g *CSR) OutDegree(u uint32) uint64 {
	return g.OutIndex[u+1] - g.OutIndex[u]
}

// InDegree returns the in-degree of u.
func (g *CSR) InDegree(u uint32) uint64 {
	return g.InIndex[u+1] - g.InIndex[u]
}

// Out returns the out-neighbor slice of u (shared storage; do not mutate).
func (g *CSR) Out(u uint32) []uint32 {
	return g.OutNeighbor[g.OutIndex[u]:g.OutIndex[u+1]]
}

// In returns the in-neighbor slice of u (shared storage; do not mutate).
func (g *CSR) In(u uint32) []uint32 {
	return g.InNeighbor[g.InIndex[u]:g.InIndex[u+1]]
}

func (g *CSR) String() string {
	return fmt.Sprintf("CSR{N=%d, M=%d}", g.N, g.NumEdges())
}

// Edge is one directed edge used during construction.
type Edge struct{ Src, Dst uint32 }

// FromEdges builds a CSR (with both directions indexed) from an edge list.
// Duplicate edges are kept (they model multi-edges' extra accesses, which is
// harmless) but self-loops and out-of-range endpoints are dropped. Every
// adjacency list comes out sorted, for deterministic traversal order.
//
// Construction is a linear-time counting sort: the kept edges are bucketed
// by destination, the destinations are walked in ascending order to scatter
// each source's out-list (sorted by destination), and the sources are then
// walked in ascending order to rebuild each in-list (sorted by source).
func FromEdges(n int, edges []Edge) *CSR {
	g := &CSR{N: n}
	outIdx := make([]uint64, n+1)
	inIdx := make([]uint64, n+1)
	kept := 0
	for _, e := range edges {
		if e.Src == e.Dst || int(e.Src) >= n || int(e.Dst) >= n {
			continue
		}
		outIdx[e.Src+1]++
		inIdx[e.Dst+1]++
		kept++
	}
	for i := 0; i < n; i++ {
		outIdx[i+1] += outIdx[i]
		inIdx[i+1] += inIdx[i]
	}
	g.OutIndex, g.InIndex = outIdx, inIdx
	g.OutNeighbor = make([]uint32, kept)
	g.InNeighbor = make([]uint32, kept)
	pos := make([]uint64, n)

	// Bucket by destination: in-lists in edge order.
	copy(pos, inIdx)
	for _, e := range edges {
		if e.Src == e.Dst || int(e.Src) >= n || int(e.Dst) >= n {
			continue
		}
		g.InNeighbor[pos[e.Dst]] = e.Src
		pos[e.Dst]++
	}
	// Ascending destinations fill each out-list in sorted order.
	copy(pos, outIdx)
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbor[inIdx[v]:inIdx[v+1]] {
			g.OutNeighbor[pos[u]] = uint32(v)
			pos[u]++
		}
	}
	// Ascending sources rebuild each in-list in sorted order.
	copy(pos, inIdx)
	for u := 0; u < n; u++ {
		for _, v := range g.OutNeighbor[outIdx[u]:outIdx[u+1]] {
			g.InNeighbor[pos[v]] = uint32(u)
			pos[v]++
		}
	}
	return g
}

// Kronecker generates an R-MAT / Kronecker graph with 2^scale vertices and
// edgeFactor*2^scale directed edges using the standard GAP/Graph500
// parameters (A=0.57, B=0.19, C=0.19), producing the heavy power-law degree
// skew the paper's Kronecker-25 input has. Deterministic per seed.
func Kronecker(scale int, edgeFactor int, seed int64) *CSR {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("graph: kronecker scale %d out of range", scale))
	}
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := edgeFactor * n
	edges := make([]Edge, 0, m)
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var src, dst uint32
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left: neither bit set
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
	}
	// GAP permutes vertex IDs so that degree does not correlate with ID.
	perm := rng.Perm(n)
	for i := range edges {
		edges[i].Src = uint32(perm[edges[i].Src])
		edges[i].Dst = uint32(perm[edges[i].Dst])
	}
	return FromEdges(n, edges)
}

// SocialNetwork generates a Twitter-like directed social graph: preferential
// attachment producing a few ultra-high-in-degree "celebrity" vertices and a
// long tail, with vertex IDs randomized. Deterministic per seed.
func SocialNetwork(n int, avgDeg int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	m := n * avgDeg
	edges := make([]Edge, 0, m)
	// Repeated-endpoint preferential attachment (Molloy-Reed style): pick
	// the destination by sampling a previous edge's destination with
	// probability p, a uniform vertex otherwise.
	const p = 0.75
	dsts := make([]uint32, 0, m)
	for i := 0; i < m; i++ {
		src := uint32(rng.Intn(n))
		var dst uint32
		if len(dsts) > 0 && rng.Float64() < p {
			dst = dsts[rng.Intn(len(dsts))]
		} else {
			dst = uint32(rng.Intn(n))
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
		dsts = append(dsts, dst)
	}
	return FromEdges(n, edges)
}

// WebGraph generates an Sd1-web-like graph: strong host-level community
// structure (most links stay within a "site" block of contiguous IDs) plus
// long-range hub links. Deterministic per seed.
func WebGraph(n int, avgDeg int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	m := n * avgDeg
	site := 256 // pages per simulated site
	if n < site*2 {
		site = n / 2
	}
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		src := uint32(rng.Intn(n))
		var dst uint32
		if rng.Float64() < 0.8 {
			// Intra-site link.
			base := (int(src) / site) * site
			dst = uint32(base + rng.Intn(site))
		} else {
			// Cross-site link, biased to low-ID hub pages.
			hub := int(float64(n) * rng.Float64() * rng.Float64())
			dst = uint32(hub)
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
	}
	return FromEdges(n, edges)
}

// DegreeBasedGrouping reorders vertex IDs so that vertices with similar
// (high) degree are grouped together — the DBG preprocessing (Faldu et al.)
// the paper's "sorted" datasets use, which coalesces hot vertex data onto
// the same pages. It returns a new graph plus the mapping old->new.
//
// New IDs follow descending total degree, ties in old-ID order (a stable
// sort), computed as a counting sort over degrees.
func DegreeBasedGrouping(g *CSR) (*CSR, []uint32) {
	deg := make([]uint64, g.N)
	var maxDeg uint64
	for u := range deg {
		deg[u] = g.OutDegree(uint32(u)) + g.InDegree(uint32(u))
		maxDeg = max(maxDeg, deg[u])
	}
	// next[maxDeg-d] is the next new ID for a vertex of degree d.
	next := make([]uint32, maxDeg+2)
	for _, d := range deg {
		next[maxDeg-d+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	remap := make([]uint32, g.N)
	for u, d := range deg {
		remap[u] = next[maxDeg-d]
		next[maxDeg-d]++
	}
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.N; u++ {
		for _, v := range g.Out(uint32(u)) {
			edges = append(edges, Edge{Src: remap[u], Dst: remap[v]})
		}
	}
	return FromEdges(g.N, edges), remap
}

// MaxDegreeVertex returns the vertex with the highest out-degree; BFS/SSSP
// start there so traversals reach most of the graph deterministically.
func (g *CSR) MaxDegreeVertex() uint32 {
	best := uint32(0)
	var bestDeg uint64
	for u := 0; u < g.N; u++ {
		if d := g.OutDegree(uint32(u)); d > bestDeg {
			bestDeg = d
			best = uint32(u)
		}
	}
	return best
}
