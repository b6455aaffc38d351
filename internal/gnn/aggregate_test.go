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
// each row's neighbours in CSR order. The vectorised Aggregator must
// reproduce them bit for bit.
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

// everyTailGraph has 15 vertices; vertex u has degree u for u < 10 and
// degrees 13, 4, 0, 1, 40 above that: every short neighbour count, and at 40
// more neighbours than one kernel call takes at 256 columns (32), so the
// tensor wrappers split the list. Neighbour lists hold duplicates and self
// loops, and reach rows at and above 10, the rows a local graph reads but
// does not produce.
func everyTailGraph() *graph.Graph {
	const n = 15
	degrees := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 4, 0, 1, 40}
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for u, d := range degrees {
		for k := 0; k < d; k++ {
			v := int32(rng.Intn(n))
			switch {
			case k == 1:
				v = int32(u) // self loop
			case k == 3 || k == 4:
				v = edges[len(edges)-1].Dst // duplicate, twice in a row
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
			for _, cols := range []int{1, 3, 8, 32, 33, 64, 130, 256} {
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
// the before/after table), one rank of each training spec's shape. Reddit:
// 455 produced rows, ~500 neighbours each, drawn from 1820 input rows; widths
// 128 and 64 are that spec's two layers and 256 is wire-wide's input layer.
// Orkut: 1573 produced rows, ~38 neighbours each, drawn from 9500 input rows;
// width 32 is its input layer and 8 its hidden width, where a row is two
// vector steps and the call into the kernel is what could cost. SetBytes
// counts the neighbour rows read (forward) or written into (backward).
var benchShapes = []struct {
	name         string
	in, out, deg int
	widths       []int
}{
	{"reddit", 1820, 455, 500, []int{256, 128, 64, 8}},
	{"orkut", 9500, 1573, 38, []int{32, 8}},
}

var benchSink *tensor.Matrix

// benchAggregate times op at each shape and width; its input has the
// shape's input rows when forward is set, its produced rows otherwise.
func benchAggregate(b *testing.B, forward bool, op func(*Aggregator, *tensor.Matrix) *tensor.Matrix) {
	for _, s := range benchShapes {
		rng := rand.New(rand.NewSource(1))
		edges := make([]graph.Edge, 0, s.out*s.deg)
		for u := 0; u < s.out; u++ {
			for k := 0; k < s.deg; k++ {
				edges = append(edges, graph.Edge{Src: int32(u), Dst: int32(rng.Intn(s.in))})
			}
		}
		agg := NewAggregator(graph.MustFromEdges(s.in, edges, false), s.out, true)
		rows := s.out
		if forward {
			rows = s.in
		}
		for _, cols := range s.widths {
			b.Run(fmt.Sprintf("%s/cols=%d", s.name, cols), func(b *testing.B) {
				in := tensor.New(rows, cols).FillRandom(2)
				b.SetBytes(agg.G.NumEdges() * int64(cols) * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink = op(agg, in)
				}
			})
		}
	}
}

func BenchmarkAggregatorForward(b *testing.B) {
	benchAggregate(b, true, (*Aggregator).Forward)
}

func BenchmarkAggregatorBackward(b *testing.B) {
	benchAggregate(b, false, (*Aggregator).Backward)
}
