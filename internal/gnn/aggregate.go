// Package gnn implements the GNN substrate of the reproduction: the
// aggregate-update layers of §2 (GCN, CommNet and GIN — the paper's three
// evaluation models) with full forward and backward passes, the loss, and a
// single-device trainer that distributed training must match bit-for-bit up
// to floating-point reassociation.
package gnn

import (
	"fmt"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

// Aggregator computes the neighborhood aggregation a_u = Σ_{v∈N(u)} w_u · h_v
// over a graph. For distributed training the graph is a re-indexed local
// graph whose input rows cover local + remote vertices while only the first
// NumOut (local) rows are produced; for single-device training NumOut equals
// the vertex count. Degrees are taken from the graph itself, which for local
// graphs equal the global degrees (package comm preserves them).
type Aggregator struct {
	G      *graph.Graph
	NumOut int
	// Mean selects mean aggregation (1/deg weighting) instead of sum.
	Mean bool
}

// NewAggregator builds an aggregator producing rows for the first numOut
// vertices of g.
func NewAggregator(g *graph.Graph, numOut int, mean bool) *Aggregator {
	if numOut > g.NumVertices() {
		panic(fmt.Sprintf("gnn: numOut %d exceeds graph size %d", numOut, g.NumVertices()))
	}
	return &Aggregator{G: g, NumOut: numOut, Mean: mean}
}

func (a *Aggregator) weight(u int32) float32 {
	if !a.Mean {
		return 1
	}
	d := a.G.Degree(u)
	if d == 0 {
		return 0
	}
	return 1 / float32(d)
}

// Forward aggregates h (|V|×f) into a NumOut×f matrix.
func (a *Aggregator) Forward(h *tensor.Matrix) *tensor.Matrix {
	if h.Rows != a.G.NumVertices() {
		panic(fmt.Sprintf("gnn: aggregate input %d rows for graph with %d vertices", h.Rows, a.G.NumVertices()))
	}
	out := tensor.New(a.NumOut, h.Cols)
	// Each output row u receives its neighbours' rows one at a time in
	// ascending neighbour order, duplicates in place: one GatherAxpy per row,
	// which holds the row in registers across all its neighbours without
	// changing that order. The sum path shares it: 1*x == x bitwise for every
	// float32 x. Both keep the result bit-identical to the per-edge serial
	// loop.
	for u := 0; u < a.NumOut; u++ {
		tensor.GatherAxpy(a.weight(int32(u)), h.Data, a.G.Neighbors(int32(u)), out.Row(u))
	}
	return out
}

// Backward distributes grad (NumOut×f) back to the input rows: the gradient
// for input row v accumulates w_u · grad_u over every u with v ∈ N(u). The
// result has one row per graph vertex (local + remote for local graphs); the
// remote rows are the gradients distributed training must ship back to the
// owning GPUs.
func (a *Aggregator) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if grad.Rows != a.NumOut {
		panic(fmt.Sprintf("gnn: aggregate grad %d rows, want %d", grad.Rows, a.NumOut))
	}
	out := tensor.New(a.G.NumVertices(), grad.Cols)
	// Input row v receives w_u·grad_u in ascending u and, within one u, in
	// neighbour order: one ScatterAxpy per u, which rounds w_u·grad_u once
	// into registers and adds those identical products the per-edge loop
	// produced into each neighbour's row.
	for u := 0; u < a.NumOut; u++ {
		tensor.ScatterAxpy(a.weight(int32(u)), grad.Row(u), a.G.Neighbors(int32(u)), out.Data)
	}
	return out
}
