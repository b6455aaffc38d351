package partition

import (
	"math/rand"
	"slices"
	"testing"

	"dgcl/internal/graph"
)

// refCoarsen is coarsen as it stood when each coarse row was sorted with
// slices.Sort: the reference the counting reorder must reproduce bit for
// bit, level after level, for the same rng stream.
func refCoarsen(w *weightedGraph, rng *rand.Rand) (*weightedGraph, []int32) {
	n := w.numVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	coarseN := 0
	cmap := make([]int32, n)
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		var best int32 = -1
		var bestW int64 = -1
		nbrs, wgts := w.neighbors(v)
		for i, u := range nbrs {
			if u != v && match[u] < 0 && wgts[i] > bestW {
				best, bestW = u, wgts[i]
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			cmap[v] = int32(coarseN)
			cmap[best] = int32(coarseN)
		} else {
			match[v] = v
			cmap[v] = int32(coarseN)
		}
		coarseN++
	}
	if float64(coarseN) > 0.95*float64(n) {
		return nil, nil
	}
	cw := &weightedGraph{
		xadj:   make([]int64, coarseN+1),
		adjncy: make([]int32, 0, len(w.adjncy)),
		adjwgt: make([]int64, 0, len(w.adjncy)),
		vwgt:   make([]int64, coarseN),
	}
	fine := make([][2]int32, coarseN)
	for i := range fine {
		fine[i] = [2]int32{-1, -1}
	}
	for v := 0; v < n; v++ {
		c := cmap[v]
		if fine[c][0] < 0 {
			fine[c][0] = int32(v)
		} else {
			fine[c][1] = int32(v)
		}
	}
	accum := make([]int64, coarseN)
	for c := 0; c < coarseN; c++ {
		start := len(cw.adjncy)
		for _, v := range fine[c] {
			if v < 0 {
				continue
			}
			cw.vwgt[c] += w.vwgt[v]
			nbrs, wgts := w.neighbors(v)
			for i, u := range nbrs {
				cu := cmap[u]
				if cu == int32(c) {
					continue
				}
				if accum[cu] == 0 {
					cw.adjncy = append(cw.adjncy, cu)
				}
				accum[cu] += wgts[i]
			}
		}
		row := cw.adjncy[start:]
		slices.Sort(row)
		for _, cu := range row {
			cw.adjwgt = append(cw.adjwgt, accum[cu])
			accum[cu] = 0
		}
		cw.xadj[c+1] = int64(len(cw.adjncy))
	}
	return cw, cmap
}

// edgeList returns g's directed edges, source-major.
func edgeList(g *graph.Graph) []graph.Edge {
	var edges []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(int32(u)) {
			edges = append(edges, graph.Edge{Src: int32(u), Dst: v})
		}
	}
	return edges
}

// undeduplicatedRMAT stores every edge of an RMAT graph in both directions
// and keeps the copies, so an RMAT pair drawn both ways becomes a parallel
// edge: a symmetric multigraph that fromGraph takes as it is.
func undeduplicatedRMAT(n int, m int64, seed int64) *graph.Graph {
	var edges []graph.Edge
	for _, e := range edgeList(graph.RMAT(n, m, 0.57, 0.19, 0.19, seed)) {
		edges = append(edges, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	return graph.MustFromEdges(n, edges, false)
}

// asymmetricMultigraph stores each undirected edge {u,v} of a random graph
// 1–3 times as u→v and, independently, 1–3 times as v→u. IsSymmetric only
// asks that both directions exist, so fromGraph keeps the multiplicities and
// coarse edge weights differ by direction.
func asymmetricMultigraph(n int, m int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for _, e := range edgeList(graph.ErdosRenyi(n, m, seed).Symmetrize()) {
		if e.Src > e.Dst {
			continue
		}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			edges = append(edges, e)
		}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			edges = append(edges, graph.Edge{Src: e.Dst, Dst: e.Src})
		}
	}
	return graph.MustFromEdges(n, edges, false)
}

// gridWithIsolated is a 16×16 grid on the even ids of 512 vertices: every
// odd vertex is isolated, never matched, and has an empty row at every level.
func gridWithIsolated() *graph.Graph {
	var edges []graph.Edge
	for _, e := range edgeList(graph.Grid2D(16, 16)) {
		edges = append(edges, graph.Edge{Src: 2 * e.Src, Dst: 2 * e.Dst})
	}
	return graph.MustFromEdges(512, edges, true)
}

// hubOverRing joins vertex 0 to every vertex of a 300-ring, so the hub's
// coarse row holds ~150 neighbours: far past the 12 below which slices.Sort
// uses insertion sort.
func hubOverRing() *graph.Graph {
	var edges []graph.Edge
	for _, e := range edgeList(graph.Ring(300)) {
		edges = append(edges, graph.Edge{Src: e.Src + 1, Dst: e.Dst + 1})
	}
	for v := int32(1); v <= 300; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v}, graph.Edge{Src: v, Dst: 0})
	}
	return graph.MustFromEdges(301, edges, true)
}

// hasParallelEdge reports whether some row of w lists a neighbour twice.
func hasParallelEdge(w *weightedGraph) bool {
	for v := 0; v < w.numVertices(); v++ {
		nbrs, _ := w.neighbors(int32(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] == nbrs[i-1] {
				return true
			}
		}
	}
	return false
}

// TestCoarsenMatchesSortReference runs coarsen and refCoarsen side by side
// from one seed until matching stops shrinking the graph, and requires every
// array of every level to be identical and every row strictly ascending.
func TestCoarsenMatchesSortReference(t *testing.T) {
	cases := []struct {
		name       string
		g          *graph.Graph
		multigraph bool // parallel edges must survive fromGraph (input passes IsSymmetric)
		asymmetric bool // some level must have w(c→d) ≠ w(d→c)
		longRow    bool // some level must have a row longer than 12
	}{
		{"orkut256", graph.ComOrkut.Generate(256, 1), false, false, false},
		{"reddit128", graph.Reddit.Generate(128, 1), false, false, false},
		{"webgoogle64", graph.WebGoogle.Generate(64, 1), false, false, false},
		{"rmat512-undeduplicated", undeduplicatedRMAT(512, 4096, 1), true, false, false},
		{"asymmetric-multiplicities", asymmetricMultigraph(400, 1600, 2), true, true, false},
		{"isolated-vertices", gridWithIsolated(), false, false, false},
		{"hub", hubOverRing(), false, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fine := fromGraph(c.g)
			if c.multigraph && !hasParallelEdge(fine) {
				t.Fatal("fromGraph kept no parallel edge; the case tests nothing")
			}
			scratch := newRowScratch(len(fine.adjncy))
			refRng, rng := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
			sawAsymmetric, longest := false, 0
			cur, level := fine, 0
			for ; ; level++ {
				want, wantMap := refCoarsen(cur, refRng)
				got, gotMap := cur.coarsen(rng, scratch)
				if (want == nil) != (got == nil) {
					t.Fatalf("level %d: reference coarsened %v, coarsen %v", level, want != nil, got != nil)
				}
				if want == nil {
					break
				}
				for _, d := range []struct {
					name string
					ok   bool
				}{
					{"cmap", slices.Equal(gotMap, wantMap)},
					{"xadj", slices.Equal(got.xadj, want.xadj)},
					{"adjncy", slices.Equal(got.adjncy, want.adjncy)},
					{"adjwgt", slices.Equal(got.adjwgt, want.adjwgt)},
					{"vwgt", slices.Equal(got.vwgt, want.vwgt)},
				} {
					if !d.ok {
						t.Fatalf("level %d (%d vertices): %s differs from the sort reference", level, cur.numVertices(), d.name)
					}
				}
				for v := 0; v < got.numVertices(); v++ {
					nbrs, wgts := got.neighbors(int32(v))
					longest = max(longest, len(nbrs))
					for i, u := range nbrs {
						if i > 0 && nbrs[i-1] >= u {
							t.Fatalf("level %d: row %d not strictly ascending: %v", level, v, nbrs)
						}
						back, backW := got.neighbors(u)
						if j, ok := slices.BinarySearch(back, int32(v)); !ok {
							t.Fatalf("level %d: edge %d→%d has no reverse", level, v, u)
						} else if backW[j] != wgts[i] {
							sawAsymmetric = true
						}
					}
				}
				cur = got
			}
			if level == 0 {
				t.Fatal("input did not coarsen at all")
			}
			if c.asymmetric && !sawAsymmetric {
				t.Error("no coarse edge has direction-dependent weight; the case tests nothing")
			}
			if c.longRow && longest <= 12 {
				t.Errorf("longest coarse row %d: the case does not reach pdqsort", longest)
			}
		})
	}
}
