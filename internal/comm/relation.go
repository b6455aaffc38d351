// Package comm derives the communication relation of distributed GNN
// training from a graph partitioning: which vertex embeddings every GPU must
// send to every other GPU for one layer (the (di, dj, Vij) tuples of §4.1),
// the per-GPU local/remote vertex sets, and the re-indexed local graphs that
// let an unmodified single-GPU GNN system run on each partition.
package comm

import (
	"cmp"
	"fmt"
	"slices"

	"dgcl/internal/graph"
	"dgcl/internal/par"
	"dgcl/internal/partition"
)

// Relation captures who needs which embeddings. For a GPU d, Local[d] lists
// its owned vertices V_l_d, Remote[d] the vertices of other partitions whose
// embeddings d needs (direct in-neighbors of local vertices), and
// Send[i][j] = Vij, the vertices GPU i must send to GPU j. All lists are
// sorted by global vertex id.
type Relation struct {
	K      int
	Owner  []int32     // global vertex -> owning GPU
	Local  [][]int32   // gpu -> owned vertices
	Remote [][]int32   // gpu -> remote vertices required
	Send   [][][]int32 // [src][dst] -> vertices src sends dst (nil on diagonal)
}

// Build computes the communication relation for graph g under partition p.
// An edge (u,v) means v's embedding is an input to u, so if owner(u) != owner(v)
// then owner(v) must send v to owner(u).
func Build(g *graph.Graph, p *partition.Partition) (*Relation, error) {
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	k := p.K
	r := &Relation{
		K:      k,
		Owner:  p.Assign,
		Local:  make([][]int32, k),
		Remote: make([][]int32, k),
		Send:   make([][][]int32, k),
	}
	for i := range r.Send {
		r.Send[i] = make([][]int32, k)
	}
	for v, owner := range p.Assign {
		r.Local[owner] = append(r.Local[owner], int32(v))
	}
	// Each GPU collects its own remote requirements: the foreign in-neighbors
	// of its local vertices, each once. GPU d writes only Remote[d] and the
	// d-th column of Send, so the GPUs are independent of one another.
	par.For(k, func(d int) {
		seen := make([]bool, g.NumVertices())
		rem := make([]int32, 0, len(r.Local[d]))
		for _, u := range r.Local[d] {
			for _, v := range g.Neighbors(u) {
				if p.Assign[v] != int32(d) && !seen[v] {
					seen[v] = true
					rem = append(rem, v)
				}
			}
		}
		slices.Sort(rem)
		r.Remote[d] = rem
		for _, v := range rem {
			src := p.Assign[v]
			r.Send[src][d] = append(r.Send[src][d], v)
		}
	})
	return r, nil
}

// Class is a group of vertices sharing the same source GPU and destination
// set; planning treats all its vertices identically, so grouping (and then
// chunking) classes makes SPST cost proportional to the number of distinct
// communication patterns rather than the number of vertices.
type Class struct {
	Src      int
	Dsts     []int
	Vertices []int32
}

// Classes groups the vertices that have at least one remote consumer by
// (source, destination set). The result is deterministic: classes sorted by
// source then destination list (lexicographically, a prefix first), and
// vertex lists ascending. The classes' Dsts and Vertices share two backing
// arrays; each slice's capacity ends at its length, so appending copies.
func (r *Relation) Classes() []Class {
	n := len(r.Owner)
	// Per-vertex destination lists in CSR form: counting into off[v+2] and
	// filling at off[v+1]++ leaves v's list at dsts[off[v]:off[v+1]].
	// Filling destination-major makes every list ascending.
	off := make([]int, n+2)
	for _, row := range r.Send {
		for _, vs := range row {
			for _, v := range vs {
				off[v+2]++
			}
		}
	}
	var perm []int32 // the vertices with a consumer, ascending
	for v := 0; v < n; v++ {
		if off[v+2] > 0 {
			perm = append(perm, int32(v))
		}
		off[v+2] += off[v+1]
	}
	dsts := make([]int, off[n+1])
	for dst := 0; dst < r.K; dst++ {
		for src := 0; src < r.K; src++ {
			for _, v := range r.Send[src][dst] {
				dsts[off[v+1]] = dst
				off[v+1]++
			}
		}
	}

	// Order the sending vertices by (owner, destination list, id): classes
	// become runs, in class order, each holding its vertices ascending.
	// slices.Compare orders a list before its extensions.
	list := func(v int32) []int { return dsts[off[v]:off[v+1]:off[v+1]] }
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(r.Owner[a], r.Owner[b]); c != 0 {
			return c
		}
		if c := slices.Compare(list(a), list(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	out := make([]Class, 0)
	for lo := 0; lo < len(perm); {
		v := perm[lo]
		hi := lo + 1
		for hi < len(perm) && r.Owner[perm[hi]] == r.Owner[v] && slices.Equal(list(perm[hi]), list(v)) {
			hi++
		}
		out = append(out, Class{Src: int(r.Owner[v]), Dsts: list(v), Vertices: perm[lo:hi:hi]})
		lo = hi
	}
	return out
}

// TotalRemoteVertices returns the total number of (gpu, vertex) remote
// requirements, i.e. the unit communication volume of one graphAllgather.
func (r *Relation) TotalRemoteVertices() int64 {
	var t int64
	for _, rem := range r.Remote {
		t += int64(len(rem))
	}
	return t
}

// Validate cross-checks the internal consistency of the relation.
func (r *Relation) Validate() error {
	for src := 0; src < r.K; src++ {
		if r.Send[src][src] != nil {
			return fmt.Errorf("comm: GPU %d sends to itself", src)
		}
		for dst := 0; dst < r.K; dst++ {
			for _, v := range r.Send[src][dst] {
				if int(r.Owner[v]) != src {
					return fmt.Errorf("comm: GPU %d sends vertex %d owned by %d", src, v, r.Owner[v])
				}
			}
		}
	}
	// Every remote requirement must be covered by exactly the owner's send set.
	for d := 0; d < r.K; d++ {
		covered := make(map[int32]bool)
		for src := 0; src < r.K; src++ {
			for _, v := range r.Send[src][d] {
				if covered[v] {
					return fmt.Errorf("comm: vertex %d sent to GPU %d twice", v, d)
				}
				covered[v] = true
			}
		}
		if len(covered) != len(r.Remote[d]) {
			return fmt.Errorf("comm: GPU %d needs %d remotes but receives %d", d, len(r.Remote[d]), len(covered))
		}
		for _, v := range r.Remote[d] {
			if !covered[v] {
				return fmt.Errorf("comm: GPU %d remote vertex %d not sent by anyone", d, v)
			}
		}
	}
	return nil
}

// LocalGraph is the re-indexed graph a single GPU trains on: vertices
// [0,NumLocal) are the GPU's own vertices (in Local[d] order) and vertices
// [NumLocal, NumLocal+NumRemote) are its remote vertices (in Remote[d]
// order). Edges are the partition-local edges Ed with endpoints re-indexed;
// the GNN system can run on it unmodified, as the paper requires.
type LocalGraph struct {
	GPU       int
	NumLocal  int
	NumRemote int
	G         *graph.Graph
	GlobalID  []int32 // local index -> global vertex id
}

// BuildLocalGraphs constructs the per-GPU re-indexed graphs.
func BuildLocalGraphs(g *graph.Graph, r *Relation) []*LocalGraph {
	out := make([]*LocalGraph, r.K)
	par.For(r.K, func(d int) {
		nl, nr := len(r.Local[d]), len(r.Remote[d])
		globalID := make([]int32, 0, nl+nr)
		globalID = append(globalID, r.Local[d]...)
		globalID = append(globalID, r.Remote[d]...)
		// index is global id -> local id, dense over the global graph: only
		// the entries of globalID are ever read (every neighbour of a local
		// vertex is local or remote).
		index := make([]int32, g.NumVertices())
		for i, v := range globalID {
			index[v] = int32(i)
		}
		deg := 0
		for _, u := range r.Local[d] {
			deg += g.Degree(u)
		}
		edges := make([]graph.Edge, 0, deg)
		for li, u := range r.Local[d] {
			for _, v := range g.Neighbors(u) {
				edges = append(edges, graph.Edge{Src: int32(li), Dst: index[v]})
			}
		}
		out[d] = &LocalGraph{
			GPU:       d,
			NumLocal:  nl,
			NumRemote: nr,
			G:         graph.MustFromEdges(nl+nr, edges, false),
			GlobalID:  globalID,
		}
	})
	return out
}
