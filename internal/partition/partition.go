// Package partition provides graph partitioning for distributed GNN
// training. The paper uses METIS to split the input graph into one balanced
// partition per GPU while minimizing cross-partition edges; this package
// implements the same objective with a from-scratch multilevel k-way
// partitioner (heavy-edge-matching coarsening, greedy growing initial
// partitioning, boundary FM refinement), a hierarchical mode that prioritizes
// cut reduction on slow inter-machine links, and simple hash/range baselines.
package partition

import (
	"fmt"
	"math/rand"

	"dgcl/internal/graph"
	"dgcl/internal/par"
)

// Partition assigns every vertex of a graph to one of K parts.
type Partition struct {
	K      int
	Assign []int32 // vertex -> part in [0,K)
}

// Options configures the multilevel partitioner.
type Options struct {
	Seed int64 // PRNG seed; same seed => same partition
}

// KWay partitions g into k balanced parts minimizing edge cut, treating g as
// undirected (edges are symmetrized internally for the cut objective).
func KWay(g *graph.Graph, k int, opts Options) (*Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	n := g.NumVertices()
	if n == 0 {
		return &Partition{K: k, Assign: nil}, nil
	}
	if k == 1 {
		return &Partition{K: 1, Assign: make([]int32, n)}, nil
	}
	if k > n {
		return nil, fmt.Errorf("partition: k=%d exceeds vertex count %d", k, n)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	wg := fromGraph(g)
	assign := multilevel(wg, k, rng)
	return &Partition{K: k, Assign: assign}, nil
}

// Hash partitions by vertex id modulo k (a common naive baseline).
func Hash(g *graph.Graph, k int) *Partition {
	n := g.NumVertices()
	assign := make([]int32, n)
	for v := 0; v < n; v++ {
		assign[v] = int32(v % k)
	}
	return &Partition{K: k, Assign: assign}
}

// Range partitions by contiguous vertex ranges of equal size.
func Range(g *graph.Graph, k int) *Partition {
	n := g.NumVertices()
	assign := make([]int32, n)
	for v := 0; v < n; v++ {
		p := v * k / n
		if p >= k {
			p = k - 1
		}
		assign[v] = int32(p)
	}
	return &Partition{K: k, Assign: assign}
}

// Hierarchical performs two-level partitioning for multi-machine clusters:
// the graph is first split across machines (minimizing slow cross-machine
// edges), then each machine's subgraph is split across its GPUs. gpusPer
// lists the GPU count of each machine; the returned partition numbers parts
// machine-major (machine 0's GPUs first).
func Hierarchical(g *graph.Graph, gpusPer []int, opts Options) (*Partition, error) {
	m := len(gpusPer)
	if m == 0 {
		return nil, fmt.Errorf("partition: no machines")
	}
	total := 0
	for _, c := range gpusPer {
		if c < 1 {
			return nil, fmt.Errorf("partition: machine with %d GPUs", c)
		}
		total += c
	}
	if m == 1 {
		return KWay(g, gpusPer[0], opts)
	}
	top, err := KWay(g, m, opts)
	if err != nil {
		return nil, err
	}
	// The machines' sub-partitions are independent: each draws from its own
	// Seed+mi+1 stream and fills only its own members' entries of assign, so
	// running them concurrently cannot change the result.
	members := make([][]int32, m)
	for v, p := range top.Assign {
		members[p] = append(members[p], int32(v))
	}
	assign := make([]int32, g.NumVertices())
	errs := make([]error, m)
	par.For(m, func(mi int) {
		if len(members[mi]) == 0 {
			return
		}
		base := 0
		for _, c := range gpusPer[:mi] {
			base += c
		}
		sub, orig := g.InducedSubgraph(members[mi])
		k := gpusPer[mi]
		if k > sub.NumVertices() {
			k = sub.NumVertices()
		}
		subOpts := opts
		subOpts.Seed = opts.Seed + int64(mi) + 1
		sp, err := KWay(sub, k, subOpts)
		if err != nil {
			errs[mi] = err
			return
		}
		for sv, p := range sp.Assign {
			assign[orig[sv]] = int32(base) + p
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Partition{K: total, Assign: assign}, nil
}

// EdgeCut returns the number of directed edges of g whose endpoints are in
// different parts.
func (p *Partition) EdgeCut(g *graph.Graph) int64 {
	var cut int64
	for u := 0; u < g.NumVertices(); u++ {
		pu := p.Assign[u]
		for _, v := range g.Neighbors(int32(u)) {
			if p.Assign[v] != pu {
				cut++
			}
		}
	}
	return cut
}

// Sizes returns the number of vertices per part.
func (p *Partition) Sizes() []int {
	sizes := make([]int, p.K)
	for _, a := range p.Assign {
		sizes[a]++
	}
	return sizes
}

// Balance returns max part size divided by the mean part size (1.0 =
// perfectly balanced).
func (p *Partition) Balance() float64 {
	if len(p.Assign) == 0 {
		return 1
	}
	sizes := p.Sizes()
	maxSz := 0
	for _, s := range sizes {
		if s > maxSz {
			maxSz = s
		}
	}
	return float64(maxSz) * float64(p.K) / float64(len(p.Assign))
}

// Validate checks internal consistency of the partition against g.
func (p *Partition) Validate(g *graph.Graph) error {
	if len(p.Assign) != g.NumVertices() {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Assign), g.NumVertices())
	}
	for v, a := range p.Assign {
		if a < 0 || int(a) >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to invalid part %d (K=%d)", v, a, p.K)
		}
	}
	return nil
}

// Members returns the vertices of each part, in ascending order.
func (p *Partition) Members() [][]int32 {
	out := make([][]int32, p.K)
	for v, a := range p.Assign {
		out[a] = append(out[a], int32(v))
	}
	return out
}
