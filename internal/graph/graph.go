// Package graph provides the compressed-sparse-row graph substrate used by
// every other DGCL component: the data graphs that GNN models train on, the
// synthetic dataset generators standing in for the paper's Reddit, Com-Orkut,
// Web-Google and Wiki-Talk graphs, and basic traversal utilities (k-hop
// neighborhoods, connectivity) needed by partitioning and replication.
package graph

import (
	"fmt"
	"slices"
)

// Graph is a directed graph in CSR (compressed sparse row) form. Vertices are
// dense integers [0, NumVertices). Edge (u,v) means "v's embedding flows to u
// during aggregation", i.e. v ∈ N(u); this matches the paper's convention
// where computing h_u requires the embeddings of u's in-neighbors.
//
// A Graph is immutable after construction; all methods are safe for
// concurrent readers.
type Graph struct {
	offsets []int64 // len = NumVertices()+1
	targets []int32 // len = NumEdges(); neighbors of u are targets[offsets[u]:offsets[u+1]]
}

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst int32
}

// FromEdges builds a CSR graph with n vertices from an edge list. Duplicate
// edges are kept unless dedup is true; self loops are kept. Neighbor lists
// are sorted ascending.
func FromEdges(n int, edges []Edge, dedup bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int64, n+1)
	for _, e := range edges {
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, n)
		}
		deg[e.Src+1]++
	}
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	targets := make([]int32, len(edges))
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		targets[cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	for u := 0; u < n; u++ {
		nbrs := targets[offsets[u]:offsets[u+1]]
		slices.Sort(nbrs)
	}
	g := &Graph{offsets: offsets, targets: targets}
	if dedup {
		g = g.dedup()
	}
	return g, nil
}

// MustFromEdges is FromEdges that panics on error; for tests and generators
// whose inputs are correct by construction.
func MustFromEdges(n int, edges []Edge, dedup bool) *Graph {
	g, err := FromEdges(n, edges, dedup)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) dedup() *Graph {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	targets := make([]int32, 0, len(g.targets))
	for u := 0; u < n; u++ {
		var prev int32 = -1
		for _, v := range g.Neighbors(int32(u)) {
			if v != prev {
				targets = append(targets, v)
				prev = v
			}
		}
		offsets[u+1] = int64(len(targets))
	}
	return &Graph{offsets: offsets, targets: targets}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.offsets[g.NumVertices()] }

// Degree returns the out-degree (number of stored neighbors) of u.
func (g *Graph) Degree(u int32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the neighbor list of u as a shared slice; callers must
// not modify it.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.targets[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether the directed edge (u,v) exists, by binary search.
func (g *Graph) HasEdge(u, v int32) bool {
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// Symmetrize returns the undirected closure: for every edge (u,v) both (u,v)
// and (v,u) exist exactly once in the result.
func (g *Graph) Symmetrize() *Graph {
	edges := make([]Edge, 0, 2*len(g.targets))
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			edges = append(edges, Edge{int32(u), v}, Edge{v, int32(u)})
		}
	}
	return MustFromEdges(n, edges, true)
}

// IsSymmetric reports whether for every edge (u,v) the edge (v,u) exists.
// Like HasEdge it relies on neighbor lists being sorted ascending, which
// makes it one linear pass: sources are visited in ascending order, so the
// reverse edges a vertex v must hold turn up in exactly the order of v's own
// list, and a cursor per vertex checks them off.
func (g *Graph) IsSymmetric() bool {
	n := g.NumVertices()
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for u := 0; u < n; u++ {
		var prev int32 = -1
		for _, v := range g.Neighbors(int32(u)) {
			if v == prev {
				continue // duplicate edge, already checked
			}
			prev = v
			c, end := cursor[v], g.offsets[v+1]
			if c == end || g.targets[c] != int32(u) {
				return false
			}
			for c < end && g.targets[c] == int32(u) {
				c++
			}
			cursor[v] = c
		}
	}
	return true
}

// Stats summarizes a graph the way Table 4 of the paper does.
type Stats struct {
	Vertices  int
	Edges     int64
	AvgDegree float64
	MaxDegree int
}

// ComputeStats returns summary statistics for g.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges(), AvgDegree: g.AvgDegree()}
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.Degree(int32(u)); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}

// KHopNeighborhood returns the set of vertices reachable from the seed set
// within at most k hops following edges (excluding or including the seeds per
// includeSeeds). The result is returned as a sorted slice.
func (g *Graph) KHopNeighborhood(seeds []int32, k int, includeSeeds bool) []int32 {
	visited := make(map[int32]bool, len(seeds)*4)
	frontier := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, s)
		}
	}
	for hop := 0; hop < k; hop++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	if !includeSeeds {
		for _, s := range seeds {
			delete(visited, s)
		}
	}
	out := make([]int32, 0, len(visited))
	for v := range visited {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// InducedSubgraph returns the subgraph induced by the given vertices together
// with the mapping from new ids to original ids. Edges to vertices outside
// the set are dropped.
func (g *Graph) InducedSubgraph(vertices []int32) (*Graph, []int32) {
	remap := make(map[int32]int32, len(vertices))
	orig := make([]int32, len(vertices))
	for i, v := range vertices {
		remap[v] = int32(i)
		orig[i] = v
	}
	var edges []Edge
	for i, v := range vertices {
		for _, w := range g.Neighbors(v) {
			if j, ok := remap[w]; ok {
				edges = append(edges, Edge{int32(i), j})
			}
		}
	}
	return MustFromEdges(len(vertices), edges, false), orig
}
