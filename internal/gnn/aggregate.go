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
	// nbrs[u] is N(u) for every produced row u, each index checked once,
	// here, against G's vertex count: the kernels then check only that an
	// operand holds that many rows.
	nbrs []tensor.RowIndex
}

// NewAggregator builds an aggregator producing rows for the first numOut
// vertices of g.
func NewAggregator(g *graph.Graph, numOut int, mean bool) *Aggregator {
	if numOut > g.NumVertices() {
		panic(fmt.Sprintf("gnn: numOut %d exceeds graph size %d", numOut, g.NumVertices()))
	}
	nbrs := make([]tensor.RowIndex, numOut)
	for u := range nbrs {
		nbrs[u] = tensor.NewRowIndex(g.Neighbors(int32(u)), g.NumVertices())
	}
	return &Aggregator{G: g, NumOut: numOut, Mean: mean, nbrs: nbrs}
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

// Forward aggregates h (|V|×f) into a new NumOut×f matrix.
func (a *Aggregator) Forward(h *tensor.Matrix) *tensor.Matrix {
	return a.ForwardInto(tensor.New(a.NumOut, h.Cols), h)
}

// ForwardInto is Forward into out (NumOut×f, overwritten), which it returns.
func (a *Aggregator) ForwardInto(out, h *tensor.Matrix) *tensor.Matrix {
	if h.Rows != a.G.NumVertices() {
		panic(fmt.Sprintf("gnn: aggregate input %d rows for graph with %d vertices", h.Rows, a.G.NumVertices()))
	}
	if out.Rows != a.NumOut || out.Cols != h.Cols {
		panic(fmt.Sprintf("gnn: aggregate into %dx%d, want %dx%d", out.Rows, out.Cols, a.NumOut, h.Cols))
	}
	// Each output row u receives its neighbours' rows one at a time in
	// ascending neighbour order, duplicates in place, starting from +0: one
	// GatherAxpyIndexed per row, which holds the row in registers across all
	// its neighbours without changing that order. The sum path shares it:
	// 1*x == x bitwise for every float32 x. Both keep the result
	// bit-identical to the per-edge serial loop.
	clear(out.Data)
	for u, ix := range a.nbrs {
		tensor.GatherAxpyIndexed(a.weight(int32(u)), h.Data, ix, out.Row(u))
	}
	return out
}

// Backward distributes grad (NumOut×f) back to the input rows: the gradient
// for input row v accumulates w_u · grad_u over every u with v ∈ N(u). The
// result has one row per graph vertex (local + remote for local graphs); the
// remote rows are the gradients distributed training must ship back to the
// owning GPUs.
func (a *Aggregator) Backward(grad *tensor.Matrix) *tensor.Matrix {
	return a.BackwardInto(tensor.New(a.G.NumVertices(), grad.Cols), grad)
}

// BackwardInto is Backward into out (|V|×f, overwritten), which it returns.
func (a *Aggregator) BackwardInto(out, grad *tensor.Matrix) *tensor.Matrix {
	if grad.Rows != a.NumOut {
		panic(fmt.Sprintf("gnn: aggregate grad %d rows, want %d", grad.Rows, a.NumOut))
	}
	if out.Rows != a.G.NumVertices() || out.Cols != grad.Cols {
		panic(fmt.Sprintf("gnn: aggregate grad into %dx%d, want %dx%d", out.Rows, out.Cols, a.G.NumVertices(), grad.Cols))
	}
	// Input row v receives w_u·grad_u in ascending u and, within one u, in
	// neighbour order, starting from +0: one ScatterAxpyIndexed per u, which
	// rounds w_u·grad_u once into registers and adds those identical
	// products the per-edge loop produced into each neighbour's row.
	clear(out.Data)
	for u, ix := range a.nbrs {
		tensor.ScatterAxpyIndexed(a.weight(int32(u)), grad.Row(u), ix, out.Data)
	}
	return out
}
