package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

// perEdgeForward and perEdgeBackward are the aggregation's specification:
// one scalar update per edge per column, output rows in ascending order,
// each row's neighbours in CSR order. The blocked, vectorised Aggregator
// must reproduce them bit for bit.
func perEdgeForward(a *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.NumOut, h.Cols)
	for u := 0; u < a.NumOut; u++ {
		w := a.weight(int32(u))
		for _, v := range a.G.Neighbors(int32(u)) {
			for j := 0; j < h.Cols; j++ {
				out.Data[u*h.Cols+j] += w * h.At(int(v), j)
			}
		}
	}
	return out
}

func perEdgeBackward(a *Aggregator, grad *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.G.NumVertices(), grad.Cols)
	for u := 0; u < a.NumOut; u++ {
		w := a.weight(int32(u))
		for _, v := range a.G.Neighbors(int32(u)) {
			for j := 0; j < grad.Cols; j++ {
				out.Data[int(v)*grad.Cols+j] += w * grad.At(u, j)
			}
		}
	}
	return out
}

func requireSameBits(t *testing.T, label string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %x, per-edge reference %x", label,
				i/want.Cols, i%want.Cols, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// everyTailGraph has 14 vertices; vertex u has degree u for u < 10 (so every
// length of the blocked loop's per-edge tail occurs, with zero, one and two
// full blocks in front of it) and degrees 13, 4, 0, 1 above that. Neighbour
// lists hold duplicates and self loops, and reach rows at and above 10, the
// rows a local graph reads but does not produce.
func everyTailGraph() *graph.Graph {
	const n = 14
	degrees := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 4, 0, 1}
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for u, d := range degrees {
		for k := 0; k < d; k++ {
			v := int32(rng.Intn(n))
			switch {
			case k == 1:
				v = int32(u) // self loop
			case k == 3 || k == 4:
				v = edges[len(edges)-1].Dst // duplicate, twice inside one block or across two
			}
			edges = append(edges, graph.Edge{Src: int32(u), Dst: v})
		}
	}
	return graph.MustFromEdges(n, edges, false)
}

func TestAggregatorBitIdenticalToPerEdge(t *testing.T) {
	g := everyTailGraph()
	for _, numOut := range []int{10, g.NumVertices()} {
		for _, mean := range []bool{true, false} {
			agg := NewAggregator(g, numOut, mean)
			for _, cols := range []int{1, 3, 8, 64, 130} {
				h := tensor.New(g.NumVertices(), cols).FillRandom(int64(cols))
				grad := tensor.New(numOut, cols).FillRandom(int64(cols) + 1000)
				label := fmt.Sprintf("numOut=%d mean=%v cols=%d", numOut, mean, cols)
				requireSameBits(t, "Forward "+label, agg.Forward(h), perEdgeForward(agg, h))
				requireSameBits(t, "Backward "+label, agg.Backward(grad), perEdgeBackward(agg, grad))
			}
		}
	}
}

// Aggregation micro-benchmarks (ungated developer tools; DESIGN.md §11 has
// the before/after table). The graph is one rank of the chan-reddit spec:
// 455 produced rows, ~500 neighbours each, drawn from 1820 input rows. Widths
// 128 and 64 are that spec's two layers, 256 is wire-wide's input layer, and
// 8 is the chan-orkut hidden width, where a row is two vector steps and the
// call into the kernel is what could cost. SetBytes counts the neighbour rows
// read (forward) or written into (backward).
const benchIn, benchOut, benchDeg = 1820, 455, 500

var benchSink *tensor.Matrix

// benchAggregate times op on a rows×cols input at each width.
func benchAggregate(b *testing.B, rows int, op func(*Aggregator, *tensor.Matrix) *tensor.Matrix) {
	rng := rand.New(rand.NewSource(1))
	edges := make([]graph.Edge, 0, benchOut*benchDeg)
	for u := 0; u < benchOut; u++ {
		for k := 0; k < benchDeg; k++ {
			edges = append(edges, graph.Edge{Src: int32(u), Dst: int32(rng.Intn(benchIn))})
		}
	}
	agg := NewAggregator(graph.MustFromEdges(benchIn, edges, false), benchOut, true)
	for _, cols := range []int{256, 128, 64, 8} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			in := tensor.New(rows, cols).FillRandom(2)
			b.SetBytes(agg.G.NumEdges() * int64(cols) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = op(agg, in)
			}
		})
	}
}

func BenchmarkAggregatorForward(b *testing.B) {
	benchAggregate(b, benchIn, (*Aggregator).Forward)
}

func BenchmarkAggregatorBackward(b *testing.B) {
	benchAggregate(b, benchOut, (*Aggregator).Backward)
}
