package gnn

import (
	"errors"
	"fmt"

	"dgcl/internal/tensor"
)

// Layer is one graph propagation layer following the aggregate-update
// pattern of Equation 1. Forward consumes the embeddings of all input
// vertices (local + remote) and produces embeddings for the first
// agg.NumOut (local) vertices, so the dense update never touches remote
// rows (§6.3). Backward consumes the gradient of the layer output and
// returns the gradient with respect to every input row, remote rows
// included, accumulating parameter gradients internally.
//
// A layer writes into buffers it keeps across calls, reallocating one only
// when its shape changes, and the matrices it returns are those buffers: an
// output stays valid until that layer's next call that writes it —
// Forward's and Reforward's until the next Forward or Reforward, Backward's
// until the next Backward. A caller that needs one longer must Clone it.
// Layers never write their inputs.
type Layer interface {
	InDim() int
	OutDim() int
	Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix
	// Reforward reruns the previous Forward's dense update with the current
	// weights over the aggregation that Forward kept for Backward, and so
	// equals a fresh Forward on the same input bit for bit. Each Forward is
	// its aggregation followed by Reforward. It panics before any Forward.
	Reforward() *tensor.Matrix
	Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix
	// Params and Grads return slices built once, with the layer; callers
	// must not write them (the matrices' elements are theirs to write).
	Params() []*tensor.Matrix
	Grads() []*tensor.Matrix
	ZeroGrads()
	// FLOPs estimates the forward floating point work for the given local
	// vertex count and edge count (backward is ~2x); package device turns it
	// into simulated time.
	FLOPs(vertices, edges int64) int64
	// SparseFLOPs is the aggregation (SpMM-like) portion of FLOPs; the rest
	// is dense GEMM work. The two run at very different effective
	// throughputs on a GPU.
	SparseFLOPs(edges int64) int64
	// CacheFloatsPerVertex is the number of float32 activations the layer
	// keeps per vertex between forward and backward; it drives the OOM
	// accounting of package device.
	CacheFloatsPerVertex() int64
}

// ParamsOnlyBackward is implemented by layers that can accumulate their
// parameter gradients without materializing the gradient with respect to
// their input. The trainer discards the input gradient of layer 0 (features
// are not trained, so no backward allgather follows), and for the paper's
// models that gradient is the most expensive part of the backward pass — a
// dense a×bᵀ matmul plus the aggregator's per-edge scatter. BackwardParams
// performs exactly Backward's parameter-gradient updates, in the same order,
// and skips only the input-gradient computation, so allreduced weight
// gradients are bit-identical either way.
type ParamsOnlyBackward interface {
	BackwardParams(agg *Aggregator, gradOut *tensor.Matrix)
}

// Every layer's forward pass ends in ReLU(x·W + b), fused into one sweep per
// output row (tensor.MatMulBiasReLUInto), and keeps only the post-ReLU
// output for the backward mask: it is positive exactly where the
// pre-activation is. Each parameter-gradient product is summed on its own
// from +0 in scratch and then added into its gradient, and every element
// gets the same rounded terms in the same order as the unfused passes did,
// so the results are theirs bit for bit.

// scratch is the matmul scratch one layer's backward pass reuses across
// calls, grown to its largest use.
type scratch struct {
	col []float32 // a column of an activation, for aᵀ·g
	wt  []float32 // a transposed weight, for g·Wᵀ
	gw  []float32 // aᵀ·g, before it is added into a weight gradient
	gb  []float32 // Σ rows of g, before it is added into a bias gradient
}

func grow(b []float32, n int) []float32 {
	if cap(b) < n {
		return make([]float32, n)
	}
	return b[:n]
}

// addWeightGrad adds aᵀ·g into gW.
func (s *scratch) addWeightGrad(gW, a, g *tensor.Matrix) {
	s.col, s.gw = grow(s.col, a.Rows), grow(s.gw, len(gW.Data))
	p := tensor.Matrix{Rows: gW.Rows, Cols: gW.Cols, Data: s.gw}
	tensor.MatMulATBInto(&p, a, g, s.col)
	tensor.AddTo(gW.Data, s.gw)
}

// addBiasGrad adds the rows of g into gB.
func (s *scratch) addBiasGrad(gB, g *tensor.Matrix) {
	s.gb = grow(s.gb, g.Cols)
	tensor.SumRowsInto(s.gb, g)
	tensor.AddTo(gB.Data, s.gb)
}

// matMulABT returns g·Wᵀ, written into out when out has its shape.
func (s *scratch) matMulABT(out, g, w *tensor.Matrix) *tensor.Matrix {
	out = tensor.Reuse(out, g.Rows, w.Rows)
	s.wt = grow(s.wt, len(w.Data))
	tensor.MatMulABTInto(out, g, w, s.wt)
	return out
}

// mask returns gradOut masked by the ReLU output post, written into out
// when out has its shape.
func mask(out, post, gradOut *tensor.Matrix) *tensor.Matrix {
	out = tensor.Reuse(out, gradOut.Rows, gradOut.Cols)
	tensor.ReLUMaskInto(out, post, gradOut)
	return out
}

// GCNLayer implements graph convolution: out = ReLU(mean(N(u)) · W + b).
type GCNLayer struct {
	W, B          *tensor.Matrix
	gW, gB        *tensor.Matrix
	params, grads []*tensor.Matrix
	// Forward's aggregation and output, kept for Backward.
	aggOut, out *tensor.Matrix
	// Backward's masked output gradient, aggregation gradient and input
	// gradient.
	gradPre, gradAgg, gradIn *tensor.Matrix
	s                        scratch
}

// NewGCNLayer builds a GCN layer with Xavier-initialized weights.
func NewGCNLayer(in, out int, seed int64) *GCNLayer {
	l := &GCNLayer{
		W: tensor.New(in, out).Xavier(seed), B: tensor.New(1, out),
		gW: tensor.New(in, out), gB: tensor.New(1, out),
	}
	l.params, l.grads = []*tensor.Matrix{l.W, l.B}, []*tensor.Matrix{l.gW, l.gB}
	return l
}

func (l *GCNLayer) InDim() int  { return l.W.Rows }
func (l *GCNLayer) OutDim() int { return l.W.Cols }

func (l *GCNLayer) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.aggOut = agg.ForwardInto(tensor.Reuse(l.aggOut, agg.NumOut, h.Cols), h)
	return l.Reforward()
}

func (l *GCNLayer) Reforward() *tensor.Matrix {
	l.out = tensor.Reuse(l.out, l.aggOut.Rows, l.W.Cols)
	tensor.MatMulBiasReLUInto(l.out, l.aggOut, l.W, l.B)
	return l.out
}

func (l *GCNLayer) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(agg, gradOut)
	l.gradAgg = l.s.matMulABT(l.gradAgg, l.gradPre, l.W)
	l.gradIn = agg.BackwardInto(tensor.Reuse(l.gradIn, agg.G.NumVertices(), l.W.Rows), l.gradAgg)
	return l.gradIn
}

// BackwardParams is Backward minus the discarded input gradient (see
// ParamsOnlyBackward).
func (l *GCNLayer) BackwardParams(_ *Aggregator, gradOut *tensor.Matrix) {
	l.gradPre = mask(l.gradPre, l.out, gradOut)
	l.s.addWeightGrad(l.gW, l.aggOut, l.gradPre)
	l.s.addBiasGrad(l.gB, l.gradPre)
}

func (l *GCNLayer) Params() []*tensor.Matrix { return l.params }
func (l *GCNLayer) Grads() []*tensor.Matrix  { return l.grads }
func (l *GCNLayer) ZeroGrads()               { l.gW.Zero(); l.gB.Zero() }

func (l *GCNLayer) FLOPs(vertices, edges int64) int64 {
	return 2*edges*int64(l.InDim()) + 2*vertices*int64(l.InDim())*int64(l.OutDim())
}

// CommNetLayer implements the CommNet update: out = ReLU(h_u·Wself +
// mean(N(u))·Wcomm + b). It has roughly twice the dense compute of GCN.
type CommNetLayer struct {
	Wself, Wcomm, B    *tensor.Matrix
	gWself, gWcomm, gB *tensor.Matrix
	params, grads      []*tensor.Matrix
	// Forward's copy of the local input rows, aggregation and output, kept
	// for Backward.
	self, aggOut, out *tensor.Matrix
	// Backward's masked output gradient, its product with Wcommᵀ and then
	// Wselfᵀ, and the input gradient.
	gradPre, gradProd, gradIn *tensor.Matrix
	row                       []float32 // the neighbour path's row of the fused forward
	s                         scratch
}

// NewCommNetLayer builds a CommNet layer.
func NewCommNetLayer(in, out int, seed int64) *CommNetLayer {
	l := &CommNetLayer{
		Wself: tensor.New(in, out).Xavier(seed), Wcomm: tensor.New(in, out).Xavier(seed + 1),
		B:      tensor.New(1, out),
		gWself: tensor.New(in, out), gWcomm: tensor.New(in, out), gB: tensor.New(1, out),
	}
	l.params = []*tensor.Matrix{l.Wself, l.Wcomm, l.B}
	l.grads = []*tensor.Matrix{l.gWself, l.gWcomm, l.gB}
	return l
}

func (l *CommNetLayer) InDim() int  { return l.Wself.Rows }
func (l *CommNetLayer) OutDim() int { return l.Wself.Cols }

func (l *CommNetLayer) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.self = tensor.Reuse(l.self, agg.NumOut, h.Cols)
	copy(l.self.Data, h.Data[:agg.NumOut*h.Cols])
	l.aggOut = agg.ForwardInto(tensor.Reuse(l.aggOut, agg.NumOut, h.Cols), h)
	return l.Reforward()
}

func (l *CommNetLayer) Reforward() *tensor.Matrix {
	l.out = tensor.Reuse(l.out, l.self.Rows, l.Wself.Cols)
	l.row = grow(l.row, l.out.Cols)
	tensor.MatMulSumBiasReLUInto(l.out, l.self, l.Wself, l.aggOut, l.Wcomm, l.B, l.row)
	return l.out
}

func (l *CommNetLayer) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(agg, gradOut)
	l.gradProd = l.s.matMulABT(l.gradProd, l.gradPre, l.Wcomm)
	l.gradIn = agg.BackwardInto(tensor.Reuse(l.gradIn, agg.G.NumVertices(), l.Wcomm.Rows), l.gradProd)
	// Self path contributes only to local rows.
	l.gradProd = l.s.matMulABT(l.gradProd, l.gradPre, l.Wself)
	tensor.AddTo(l.gradIn.Data[:len(l.gradProd.Data)], l.gradProd.Data)
	return l.gradIn
}

// BackwardParams is Backward minus the discarded input gradient (see
// ParamsOnlyBackward).
func (l *CommNetLayer) BackwardParams(_ *Aggregator, gradOut *tensor.Matrix) {
	l.gradPre = mask(l.gradPre, l.out, gradOut)
	l.s.addWeightGrad(l.gWself, l.self, l.gradPre)
	l.s.addWeightGrad(l.gWcomm, l.aggOut, l.gradPre)
	l.s.addBiasGrad(l.gB, l.gradPre)
}

func (l *CommNetLayer) Params() []*tensor.Matrix { return l.params }
func (l *CommNetLayer) Grads() []*tensor.Matrix  { return l.grads }
func (l *CommNetLayer) ZeroGrads()               { l.gWself.Zero(); l.gWcomm.Zero(); l.gB.Zero() }

func (l *CommNetLayer) FLOPs(vertices, edges int64) int64 {
	return 2*edges*int64(l.InDim()) + 4*vertices*int64(l.InDim())*int64(l.OutDim())
}

// GINLayer implements the GIN update with a two-layer MLP:
// out = ReLU(MLP((1+eps)·h_u + Σ_{v∈N(u)} h_v)) where
// MLP(x) = ReLU(x·W1 + b1)·W2 + b2. It is the most compute-heavy of the
// three models (two dense layers per propagation).
type GINLayer struct {
	Eps                float32
	W1, B1, W2, B2     *tensor.Matrix
	gW1, gB1, gW2, gB2 *tensor.Matrix
	params, grads      []*tensor.Matrix
	// Forward's (1+eps)-weighted sum, hidden activation and output, kept for
	// Backward; each ReLU output is its own backward mask.
	sum, hidden, out *tensor.Matrix
	// Backward's masked output gradient, hidden-layer gradient (masked in
	// place), sum gradient and input gradient.
	gradPre2, gradHidden, gradSum, gradIn *tensor.Matrix
	s                                     scratch
}

// NewGINLayer builds a GIN layer whose MLP hidden width is twice the output
// width (making GIN the most compute-heavy model, as in the paper's lineup).
func NewGINLayer(in, out int, seed int64) *GINLayer {
	hidden := 2 * out
	l := &GINLayer{
		Eps: 0.1,
		W1:  tensor.New(in, hidden).Xavier(seed), B1: tensor.New(1, hidden),
		W2: tensor.New(hidden, out).Xavier(seed + 1), B2: tensor.New(1, out),
		gW1: tensor.New(in, hidden), gB1: tensor.New(1, hidden),
		gW2: tensor.New(hidden, out), gB2: tensor.New(1, out),
	}
	l.params = []*tensor.Matrix{l.W1, l.B1, l.W2, l.B2}
	l.grads = []*tensor.Matrix{l.gW1, l.gB1, l.gW2, l.gB2}
	return l
}

func (l *GINLayer) InDim() int  { return l.W1.Rows }
func (l *GINLayer) OutDim() int { return l.W2.Cols }

func (l *GINLayer) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	if agg.Mean {
		panic("gnn: GIN requires a sum aggregator")
	}
	l.sum = agg.ForwardInto(tensor.Reuse(l.sum, agg.NumOut, h.Cols), h)
	tensor.Axpy(1+l.Eps, h.Data[:agg.NumOut*h.Cols], l.sum.Data)
	return l.Reforward()
}

// Reforward reuses sum, which already holds the (1+eps)·self term.
func (l *GINLayer) Reforward() *tensor.Matrix {
	l.hidden = tensor.Reuse(l.hidden, l.sum.Rows, l.W1.Cols)
	tensor.MatMulBiasReLUInto(l.hidden, l.sum, l.W1, l.B1)
	l.out = tensor.Reuse(l.out, l.sum.Rows, l.W2.Cols)
	tensor.MatMulBiasReLUInto(l.out, l.hidden, l.W2, l.B2)
	return l.out
}

func (l *GINLayer) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(agg, gradOut)
	l.gradSum = l.s.matMulABT(l.gradSum, l.gradHidden, l.W1)
	l.gradIn = agg.BackwardInto(tensor.Reuse(l.gradIn, agg.G.NumVertices(), l.W1.Rows), l.gradSum)
	// (1+eps) self contribution, to the local rows only.
	tensor.Axpy(1+l.Eps, l.gradSum.Data, l.gradIn.Data[:len(l.gradSum.Data)])
	return l.gradIn
}

// BackwardParams is Backward minus the discarded input gradient (see
// ParamsOnlyBackward). The hidden-layer gradient chain through the MLP is
// still required for gW1; only the propagation back through the aggregation
// (gradSum, the scatter, and the self contribution) is skipped.
func (l *GINLayer) BackwardParams(_ *Aggregator, gradOut *tensor.Matrix) {
	l.gradPre2 = mask(l.gradPre2, l.out, gradOut)
	l.s.addWeightGrad(l.gW2, l.hidden, l.gradPre2)
	l.s.addBiasGrad(l.gB2, l.gradPre2)
	l.gradHidden = l.s.matMulABT(l.gradHidden, l.gradPre2, l.W2)
	tensor.ReLUMaskInto(l.gradHidden, l.hidden, l.gradHidden)
	l.s.addWeightGrad(l.gW1, l.sum, l.gradHidden)
	l.s.addBiasGrad(l.gB1, l.gradHidden)
}

func (l *GINLayer) Params() []*tensor.Matrix { return l.params }
func (l *GINLayer) Grads() []*tensor.Matrix  { return l.grads }
func (l *GINLayer) ZeroGrads()               { l.gW1.Zero(); l.gB1.Zero(); l.gW2.Zero(); l.gB2.Zero() }

func (l *GINLayer) FLOPs(vertices, edges int64) int64 {
	in, hidden, out := int64(l.InDim()), int64(l.W1.Cols), int64(l.OutDim())
	return 2*edges*in + 2*vertices*in*hidden + 2*vertices*hidden*out
}

// ModelKind names one of the paper's three GNN models.
type ModelKind string

// The three models of §7.
const (
	GCN     ModelKind = "GCN"
	CommNet ModelKind = "CommNet"
	GIN     ModelKind = "GIN"
)

// AllModels lists the paper's evaluated models in evaluation order.
var AllModels = []ModelKind{GCN, CommNet, GIN}

// ErrUnknownModel is returned (wrapped) by ParseModelKind for a name outside
// AllModels: a mistyped flag, a coordinator's Spec or a checkpoint written
// by another build.
var ErrUnknownModel = errors.New("gnn: unknown model kind")

// ParseModelKind returns the model kind named s, or an error matching
// ErrUnknownModel.
func ParseModelKind(s string) (ModelKind, error) {
	for _, k := range AllModels {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("%w %q", ErrUnknownModel, s)
}

// NeedsMeanAggregator reports whether the model aggregates with mean (GCN,
// CommNet). GIN uses sum.
func (k ModelKind) NeedsMeanAggregator() bool { return k == GCN || k == CommNet }

// NewLayer constructs one layer of the given kind. An unknown kind is a
// programming error: names from outside the program go through
// ParseModelKind first.
func (k ModelKind) NewLayer(in, out int, seed int64) Layer {
	switch k {
	case GCN:
		return NewGCNLayer(in, out, seed)
	case CommNet:
		return NewCommNetLayer(in, out, seed)
	case GIN:
		return NewGINLayer(in, out, seed)
	}
	panic(fmt.Sprintf("gnn: unknown model kind %q", k))
}

// SparseFLOPs implementations: the aggregation touches every edge once with
// the layer's input width.

func (l *GCNLayer) SparseFLOPs(edges int64) int64     { return 2 * edges * int64(l.InDim()) }
func (l *CommNetLayer) SparseFLOPs(edges int64) int64 { return 2 * edges * int64(l.InDim()) }
func (l *GINLayer) SparseFLOPs(edges int64) int64     { return 2 * edges * int64(l.InDim()) }

// CacheFloatsPerVertex implementations: the per-vertex tensors each layer
// keeps alive from its forward pass into its backward pass.

func (l *GCNLayer) CacheFloatsPerVertex() int64 {
	return int64(l.InDim() + l.OutDim()) // aggOut + out
}

func (l *CommNetLayer) CacheFloatsPerVertex() int64 {
	return int64(2*l.InDim() + l.OutDim()) // self + aggOut + out
}

func (l *GINLayer) CacheFloatsPerVertex() int64 {
	hidden := l.W1.Cols
	return int64(l.InDim() + 2*hidden + l.OutDim()) // sum + hidden + out, plus the hidden gradient
}
