package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

// The unfused layers the fused, buffer-keeping ones replaced, kept as their
// reference: every call allocates its results, the bias and ReLU are passes
// of their own, the pre-activations are kept for the backward mask, and the
// masks are `if` loops. They read the weights of the layer under test (so a
// weight change reaches both) and keep gradients of their own.

func refReLU(a *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

func refReLUGrad(pre, grad *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(grad.Rows, grad.Cols)
	for i, v := range pre.Data {
		if v > 0 {
			out.Data[i] = grad.Data[i]
		}
	}
	return out
}

func refAddBias(a, bias *tensor.Matrix) {
	for i := 0; i < a.Rows; i++ {
		tensor.AddTo(a.Row(i), bias.Data)
	}
}

func refBiasGrad(grad *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(1, grad.Cols)
	for i := 0; i < grad.Rows; i++ {
		tensor.AddTo(out.Data, grad.Row(i))
	}
	return out
}

func refATB(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Cols, b.Cols)
	tensor.MatMulATBInto(out, a, b, make([]float32, a.Rows))
	return out
}

func refABT(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Rows)
	tensor.MatMulABTInto(out, a, b, make([]float32, len(b.Data)))
	return out
}

func refSelfRows(h *tensor.Matrix, n int) *tensor.Matrix {
	return tensor.FromData(n, h.Cols, h.Data[:n*h.Cols])
}

type refLayer interface {
	Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix
	Reforward() *tensor.Matrix
	Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix
	BackwardParams(agg *Aggregator, gradOut *tensor.Matrix)
	Grads() []*tensor.Matrix
}

type refGCN struct {
	W, B, gW, gB *tensor.Matrix
	aggOut, pre  *tensor.Matrix
}

func (l *refGCN) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.aggOut = agg.Forward(h)
	return l.Reforward()
}

func (l *refGCN) Reforward() *tensor.Matrix {
	l.pre = tensor.MatMul(l.aggOut, l.W)
	refAddBias(l.pre, l.B)
	return refReLU(l.pre)
}

func (l *refGCN) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	gradPre := refReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gW, refATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, refBiasGrad(gradPre))
	gradAgg := refABT(gradPre, l.W)
	return agg.Backward(gradAgg)
}

func (l *refGCN) BackwardParams(agg *Aggregator, gradOut *tensor.Matrix) {
	gradPre := refReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gW, refATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, refBiasGrad(gradPre))
}

func (l *refGCN) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.gW, l.gB} }

type refCommNet struct {
	Wself, Wcomm, B, gWself, gWcomm, gB *tensor.Matrix
	self, aggOut, pre                   *tensor.Matrix
}

func (l *refCommNet) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.self = refSelfRows(h, agg.NumOut).Clone()
	l.aggOut = agg.Forward(h)
	return l.Reforward()
}

func (l *refCommNet) Reforward() *tensor.Matrix {
	l.pre = tensor.MatMul(l.self, l.Wself)
	tensor.AddInPlace(l.pre, tensor.MatMul(l.aggOut, l.Wcomm))
	refAddBias(l.pre, l.B)
	return refReLU(l.pre)
}

func (l *refCommNet) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	gradPre := refReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gWself, refATB(l.self, gradPre))
	tensor.AddInPlace(l.gWcomm, refATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, refBiasGrad(gradPre))
	gradSelf := refABT(gradPre, l.Wself)
	gradAgg := refABT(gradPre, l.Wcomm)
	gradIn := agg.Backward(gradAgg)
	tensor.AddInPlace(refSelfRows(gradIn, agg.NumOut), gradSelf)
	return gradIn
}

func (l *refCommNet) BackwardParams(agg *Aggregator, gradOut *tensor.Matrix) {
	gradPre := refReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gWself, refATB(l.self, gradPre))
	tensor.AddInPlace(l.gWcomm, refATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, refBiasGrad(gradPre))
}

func (l *refCommNet) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.gWself, l.gWcomm, l.gB} }

type refGIN struct {
	Eps                     float32
	W1, B1, W2, B2          *tensor.Matrix
	gW1, gB1, gW2, gB2      *tensor.Matrix
	sum, pre1, hidden, pre2 *tensor.Matrix
}

func (l *refGIN) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.sum = agg.Forward(h)
	tensor.Axpy(1+l.Eps, refSelfRows(h, agg.NumOut).Data, l.sum.Data)
	return l.Reforward()
}

func (l *refGIN) Reforward() *tensor.Matrix {
	l.pre1 = tensor.MatMul(l.sum, l.W1)
	refAddBias(l.pre1, l.B1)
	l.hidden = refReLU(l.pre1)
	l.pre2 = tensor.MatMul(l.hidden, l.W2)
	refAddBias(l.pre2, l.B2)
	return refReLU(l.pre2)
}

func (l *refGIN) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	gradPre2 := refReLUGrad(l.pre2, gradOut)
	tensor.AddInPlace(l.gW2, refATB(l.hidden, gradPre2))
	tensor.AddInPlace(l.gB2, refBiasGrad(gradPre2))
	gradHidden := refABT(gradPre2, l.W2)
	gradPre1 := refReLUGrad(l.pre1, gradHidden)
	tensor.AddInPlace(l.gW1, refATB(l.sum, gradPre1))
	tensor.AddInPlace(l.gB1, refBiasGrad(gradPre1))
	gradSum := refABT(gradPre1, l.W1)
	gradIn := agg.Backward(gradSum)
	tensor.Axpy(1+l.Eps, gradSum.Data, refSelfRows(gradIn, agg.NumOut).Data)
	return gradIn
}

func (l *refGIN) BackwardParams(agg *Aggregator, gradOut *tensor.Matrix) {
	gradPre2 := refReLUGrad(l.pre2, gradOut)
	tensor.AddInPlace(l.gW2, refATB(l.hidden, gradPre2))
	tensor.AddInPlace(l.gB2, refBiasGrad(gradPre2))
	gradHidden := refABT(gradPre2, l.W2)
	gradPre1 := refReLUGrad(l.pre1, gradHidden)
	tensor.AddInPlace(l.gW1, refATB(l.sum, gradPre1))
	tensor.AddInPlace(l.gB1, refBiasGrad(gradPre1))
}

func (l *refGIN) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.gW1, l.gB1, l.gW2, l.gB2} }

// newRef builds the unfused reference over l's weights, with zero gradients.
func newRef(l Layer) refLayer {
	zero := func(m *tensor.Matrix) *tensor.Matrix { return tensor.New(m.Rows, m.Cols) }
	p := l.Params()
	switch l := l.(type) {
	case *GCNLayer:
		return &refGCN{W: p[0], B: p[1], gW: zero(p[0]), gB: zero(p[1])}
	case *CommNetLayer:
		return &refCommNet{Wself: p[0], Wcomm: p[1], B: p[2], gWself: zero(p[0]), gWcomm: zero(p[1]), gB: zero(p[2])}
	case *GINLayer:
		return &refGIN{Eps: l.Eps, W1: p[0], B1: p[1], W2: p[2], B2: p[3],
			gW1: zero(p[0]), gB1: zero(p[1]), gW2: zero(p[2]), gB2: zero(p[3])}
	}
	panic("unknown layer")
}

// specials is the operand table the layers' inputs draw from: NaN, both
// zeros, both infinities, the smallest and largest denormals, and values
// whose products overflow or underflow.
var specials = []float32{
	float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32, 1e-30, -1e-30, 1e30, -1e30,
}

// refOperand is a rows×cols matrix of values in [-1, 1), with about one
// element in special drawn from specials when special is set.
func refOperand(rng *rand.Rand, rows, cols int, special bool) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
		if special && rng.Intn(4) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// requireSameFloats fails unless got and want have the same shape and bits,
// a NaN matching any NaN (which operand's payload survives an add is the
// compiler's choice, as the row kernels' tests note).
func requireSameFloats(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if (w != w && g != g) || math.Float32bits(g) == math.Float32bits(w) {
			continue
		}
		t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
	}
}

// checkLayerBitIdentical drives one layer of kind through random local-graph
// shapes, twice per shape so that the second call runs on the buffers the
// first left (and a new shape reallocates them), against the unfused
// reference over the same weights: Forward, Backward and its parameter
// gradients, then a weight change, Reforward, and BackwardParams.
func checkLayerBitIdentical(t *testing.T, kind ModelKind) {
	rng := rand.New(rand.NewSource(int64(len(kind))))
	for _, dims := range [][2]int{{3, 5}, {8, 8}, {33, 9}, {6, 40}} {
		l := kind.NewLayer(dims[0], dims[1], 11)
		ref := newRef(l)
		for c := 0; c < 6; c++ {
			n := 2 + rng.Intn(40)
			numOut := 1 + rng.Intn(n)
			if c%3 == 2 {
				numOut = n
			}
			edges := make([]graph.Edge, rng.Intn(6*n))
			for i := range edges {
				edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
			}
			agg := NewAggregator(graph.MustFromEdges(n, edges, false), numOut, kind.NeedsMeanAggregator())
			for call := 0; call < 2; call++ {
				label := fmt.Sprintf("%s %dx%d case %d (n=%d numOut=%d) call %d", kind, dims[0], dims[1], c, n, numOut, call)
				special := (c+call)%2 == 1
				h := refOperand(rng, n, dims[0], special)
				gradOut := refOperand(rng, numOut, dims[1], special)
				requireSameFloats(t, label+" Forward", l.Forward(agg, h), ref.Forward(agg, h))
				requireSameFloats(t, label+" Backward", l.Backward(agg, gradOut), ref.Backward(agg, gradOut))
				for i, g := range ref.Grads() {
					requireSameFloats(t, fmt.Sprintf("%s Backward grad %d", label, i), l.Grads()[i], g)
				}
				for _, p := range l.Params() {
					for i := range p.Data {
						p.Data[i] -= 0.25 * (rng.Float32() - 0.5)
					}
				}
				requireSameFloats(t, label+" Reforward", l.Reforward(), ref.Reforward())
				gradOut = refOperand(rng, numOut, dims[1], special)
				l.(ParamsOnlyBackward).BackwardParams(agg, gradOut)
				ref.BackwardParams(agg, gradOut)
				for i, g := range ref.Grads() {
					requireSameFloats(t, fmt.Sprintf("%s BackwardParams grad %d", label, i), l.Grads()[i], g)
				}
			}
		}
	}
}

func TestGCNLayerBitIdentical(t *testing.T)     { checkLayerBitIdentical(t, GCN) }
func TestCommNetLayerBitIdentical(t *testing.T) { checkLayerBitIdentical(t, CommNet) }
func TestGINLayerBitIdentical(t *testing.T)     { checkLayerBitIdentical(t, GIN) }
