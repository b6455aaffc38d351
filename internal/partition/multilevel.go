package partition

import (
	"math/rand"

	"dgcl/internal/graph"
)

// weightedGraph is the internal CSR representation used during multilevel
// partitioning: vertices and edges carry weights that accumulate as the
// graph is coarsened.
type weightedGraph struct {
	xadj   []int64
	adjncy []int32
	adjwgt []int64
	vwgt   []int64
}

func (w *weightedGraph) numVertices() int { return len(w.vwgt) }

func (w *weightedGraph) totalVWgt() int64 {
	var t int64
	for _, x := range w.vwgt {
		t += x
	}
	return t
}

// fromGraph symmetrizes g and converts it to unit-weight form.
func fromGraph(g *graph.Graph) *weightedGraph {
	s := g
	if !g.IsSymmetric() {
		s = g.Symmetrize()
	}
	n := s.NumVertices()
	w := &weightedGraph{
		xadj:   make([]int64, n+1),
		adjncy: make([]int32, 0, s.NumEdges()),
		adjwgt: make([]int64, 0, s.NumEdges()),
		vwgt:   make([]int64, n),
	}
	for v := 0; v < n; v++ {
		w.vwgt[v] = 1
		for _, u := range s.Neighbors(int32(v)) {
			if u == int32(v) {
				continue // self loops contribute nothing to cut
			}
			w.adjncy = append(w.adjncy, u)
			w.adjwgt = append(w.adjwgt, 1)
		}
		w.xadj[v+1] = int64(len(w.adjncy))
	}
	return w
}

func (w *weightedGraph) neighbors(v int32) ([]int32, []int64) {
	return w.adjncy[w.xadj[v]:w.xadj[v+1]], w.adjwgt[w.xadj[v]:w.xadj[v+1]]
}

// rowScratch holds coarse rows as they are gathered, unsorted: a row's
// length, and so the coarse edge count, is known only once it is complete. A
// coarse graph has at most as many edges as the graph it was built from, so
// one rowScratch sized for the finest level serves every level of a
// multilevel call.
type rowScratch struct {
	adjncy []int32
	adjwgt []int64
}

func newRowScratch(edges int) rowScratch {
	return rowScratch{adjncy: make([]int32, edges), adjwgt: make([]int64, edges)}
}

// coarsen performs one level of heavy-edge matching and returns the coarse
// graph plus the fine->coarse vertex map. Returns nil if matching failed to
// shrink the graph meaningfully (ratio > 0.95). s must hold at least
// len(w.adjncy) entries; coarsen overwrites it.
//
// Each coarse row is gathered unsorted into s and then emitted in ascending
// neighbour order, without sorting: a counting scatter (a transpose) writes
// the ids and a row-local pass attaches each row's own weights. Heavy-edge
// matching breaks weight ties by neighbour order, so the order is what keeps
// a seed's partition fixed.
func (w *weightedGraph) coarsen(rng *rand.Rand, s rowScratch) (*weightedGraph, []int32) {
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
		// Heavy-edge matching: pick the unmatched neighbor with the largest
		// edge weight.
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
	// Build coarse graph, merging parallel edges.
	xadj, vwgt := make([]int64, coarseN+1), make([]int64, coarseN)
	// Gather fine vertices per coarse vertex.
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
	// accum[cu] is the weight gathered so far on the edge from the current
	// coarse vertex to cu. Edge weights are >= 1, so 0 means "not a neighbor
	// yet" and the neighbor ids can be collected straight into the scratch.
	scrAdj, scrWgt := s.adjncy, s.adjwgt
	accum := make([]int64, coarseN)
	var e int64
	for c := 0; c < coarseN; c++ {
		start := e
		for _, v := range fine[c] {
			if v < 0 {
				continue
			}
			vwgt[c] += w.vwgt[v]
			nbrs, wgts := w.neighbors(v)
			for i, u := range nbrs {
				cu := cmap[u]
				if cu == int32(c) {
					continue
				}
				if accum[cu] == 0 {
					scrAdj[e] = cu
					e++
				}
				accum[cu] += wgts[i]
			}
		}
		for j, cu := range scrAdj[start:e] {
			scrWgt[start+int64(j)] = accum[cu]
			accum[cu] = 0
		}
		xadj[c+1] = e
	}
	// accum is all zero again and now counts the ids written to each row of
	// the transpose. The fine graph has an edge u→v exactly when it has v→u
	// (fromGraph symmetrizes any graph that lacks one), so the coarse graph
	// does too: row d of the transpose holds exactly row d's ids, in
	// ascending order because c ascends, and fills the slots xadj gives row d.
	adjncy, adjwgt := make([]int32, e), make([]int64, e)
	for c := 0; c < coarseN; c++ {
		for _, d := range scrAdj[xadj[c]:xadj[c+1]] {
			adjncy[xadj[d]+accum[d]] = int32(c)
			accum[d]++
		}
	}
	// Weights cannot ride along in the transpose: it would give row c the
	// weight of d→c where c→d belongs, and the two differ when fromGraph
	// keeps a multigraph's duplicate edges (it keeps any input that has both
	// directions of every edge). Each row looks its weights up in its own
	// unsorted copy instead, through accum.
	for c := 0; c < coarseN; c++ {
		lo, hi := xadj[c], xadj[c+1]
		for j, d := range scrAdj[lo:hi] {
			accum[d] = scrWgt[lo+int64(j)]
		}
		for j, d := range adjncy[lo:hi] {
			adjwgt[lo+int64(j)] = accum[d]
		}
	}
	return &weightedGraph{xadj: xadj, adjncy: adjncy, adjwgt: adjwgt, vwgt: vwgt}, cmap
}

// multilevel runs the full coarsen / initial-partition / refine pipeline,
// coarsening until at most 30 vertices per part remain.
func multilevel(w *weightedGraph, k int, rng *rand.Rand) []int32 {
	levels, maps, cur := coarsenLevels(w, 30*k, rng)
	// Initial partition at the coarsest level.
	assign := greedyGrow(cur, k, rng)
	refine(cur, assign, k, rng)
	// Uncoarsening with refinement.
	for i := len(levels) - 1; i >= 0; i-- {
		fineG, cmap := levels[i], maps[i]
		fineAssign := make([]int32, fineG.numVertices())
		for v := range fineAssign {
			fineAssign[v] = assign[cmap[v]]
		}
		assign = fineAssign
		refine(fineG, assign, k, rng)
	}
	return assign
}

// coarsenLevels coarsens w until it has at most limit vertices or matching
// stops shrinking it. It returns every level but the coarsest, the
// fine->coarse map out of each, and the coarsest graph. The row scratch
// every level shares is sized for w and dies on return, so refinement does
// not hold it.
func coarsenLevels(w *weightedGraph, limit int, rng *rand.Rand) (levels []*weightedGraph, maps [][]int32, coarsest *weightedGraph) {
	if w.numVertices() <= limit {
		return nil, nil, w
	}
	scratch := newRowScratch(len(w.adjncy))
	cur := w
	for cur.numVertices() > limit {
		cw, cmap := cur.coarsen(rng, scratch)
		if cw == nil {
			break
		}
		levels = append(levels, cur)
		maps = append(maps, cmap)
		cur = cw
	}
	return levels, maps, cur
}

// greedyGrow produces an initial k-way partition by BFS-growing parts from
// random seeds until each reaches its weight target.
func greedyGrow(w *weightedGraph, k int, rng *rand.Rand) []int32 {
	n := w.numVertices()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	target := (w.totalVWgt() + int64(k) - 1) / int64(k)
	order := rng.Perm(n)
	oi := 0
	nextSeed := func() int32 {
		for oi < len(order) {
			v := int32(order[oi])
			oi++
			if assign[v] < 0 {
				return v
			}
		}
		return -1
	}
	queue := make([]int32, 0, 256)
	for p := 0; p < k; p++ {
		seed := nextSeed()
		if seed < 0 {
			break
		}
		var wgt int64
		queue = append(queue[:0], seed)
		assign[seed] = int32(p)
		wgt += w.vwgt[seed]
		for len(queue) > 0 && wgt < target {
			v := queue[0]
			queue = queue[1:]
			nbrs, _ := w.neighbors(v)
			for _, u := range nbrs {
				if assign[u] < 0 && wgt < target {
					assign[u] = int32(p)
					wgt += w.vwgt[u]
					queue = append(queue, u)
				}
			}
		}
	}
	// Any leftovers go to the currently lightest part.
	loads := make([]int64, k)
	for v := 0; v < n; v++ {
		if assign[v] >= 0 {
			loads[assign[v]] += w.vwgt[v]
		}
	}
	for v := 0; v < n; v++ {
		if assign[v] >= 0 {
			continue
		}
		best := 0
		for p := 1; p < k; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		assign[v] = int32(best)
		loads[best] += w.vwgt[v]
	}
	return assign
}

const (
	// imbalance is the allowed load imbalance: no part may exceed
	// (1+imbalance) times the mean part weight.
	imbalance = 0.05
	// refinePasses bounds the refinement passes per level.
	refinePasses = 8
)

// refine performs greedy boundary FM-style refinement passes: boundary
// vertices move to the neighboring part with the highest cut gain subject to
// the balance constraint.
func refine(w *weightedGraph, assign []int32, k int, rng *rand.Rand) {
	n := w.numVertices()
	loads := make([]int64, k)
	for v := 0; v < n; v++ {
		loads[assign[v]] += w.vwgt[v]
	}
	maxLoad := int64(float64(w.totalVWgt()) * (1 + imbalance) / float64(k))
	if maxLoad < 1 {
		maxLoad = 1
	}
	conn := make([]int64, k) // connectivity of current vertex to each part
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		order := rng.Perm(n)
		for _, vi := range order {
			v := int32(vi)
			from := assign[v]
			nbrs, wgts := w.neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			boundary := false
			for _, u := range nbrs {
				if assign[u] != from {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			for p := 0; p < k; p++ {
				conn[p] = 0
			}
			for i, u := range nbrs {
				conn[assign[u]] += wgts[i]
			}
			bestPart, bestGain := from, int64(0)
			for p := 0; p < k; p++ {
				if int32(p) == from {
					continue
				}
				gain := conn[p] - conn[from]
				if gain > bestGain && loads[p]+w.vwgt[v] <= maxLoad {
					bestPart, bestGain = int32(p), gain
				}
			}
			if bestPart != from {
				loads[from] -= w.vwgt[v]
				loads[bestPart] += w.vwgt[v]
				assign[v] = bestPart
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
