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

// selfRows returns a view of the first n rows of h (no copy: writes through
// it land in h).
func selfRows(h *tensor.Matrix, n int) *tensor.Matrix {
	return tensor.FromData(n, h.Cols, h.Data[:n*h.Cols])
}

// GCNLayer implements graph convolution: out = ReLU(mean(N(u)) · W + b).
type GCNLayer struct {
	W, B   *tensor.Matrix
	gW, gB *tensor.Matrix
	// caches from forward for backward
	aggOut, pre *tensor.Matrix
}

// NewGCNLayer builds a GCN layer with Xavier-initialized weights.
func NewGCNLayer(in, out int, seed int64) *GCNLayer {
	return &GCNLayer{
		W: tensor.New(in, out).Xavier(seed), B: tensor.New(1, out),
		gW: tensor.New(in, out), gB: tensor.New(1, out),
	}
}

func (l *GCNLayer) InDim() int  { return l.W.Rows }
func (l *GCNLayer) OutDim() int { return l.W.Cols }

func (l *GCNLayer) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.aggOut = agg.Forward(h)
	return l.Reforward()
}

func (l *GCNLayer) Reforward() *tensor.Matrix {
	l.pre = tensor.MatMul(l.aggOut, l.W)
	tensor.AddBiasInPlace(l.pre, l.B)
	return tensor.ReLU(l.pre)
}

func (l *GCNLayer) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	gradPre := tensor.ReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gW, tensor.MatMulATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, tensor.BiasGrad(gradPre))
	gradAgg := tensor.MatMulABT(gradPre, l.W)
	return agg.Backward(gradAgg)
}

// BackwardParams is Backward minus the discarded input gradient (see
// ParamsOnlyBackward).
func (l *GCNLayer) BackwardParams(agg *Aggregator, gradOut *tensor.Matrix) {
	gradPre := tensor.ReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gW, tensor.MatMulATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, tensor.BiasGrad(gradPre))
}

func (l *GCNLayer) Params() []*tensor.Matrix { return []*tensor.Matrix{l.W, l.B} }
func (l *GCNLayer) Grads() []*tensor.Matrix  { return []*tensor.Matrix{l.gW, l.gB} }
func (l *GCNLayer) ZeroGrads()               { l.gW.Zero(); l.gB.Zero() }

func (l *GCNLayer) FLOPs(vertices, edges int64) int64 {
	return 2*edges*int64(l.InDim()) + 2*vertices*int64(l.InDim())*int64(l.OutDim())
}

// CommNetLayer implements the CommNet update: out = ReLU(h_u·Wself +
// mean(N(u))·Wcomm + b). It has roughly twice the dense compute of GCN.
type CommNetLayer struct {
	Wself, Wcomm, B    *tensor.Matrix
	gWself, gWcomm, gB *tensor.Matrix
	self, aggOut, pre  *tensor.Matrix
}

// NewCommNetLayer builds a CommNet layer.
func NewCommNetLayer(in, out int, seed int64) *CommNetLayer {
	return &CommNetLayer{
		Wself: tensor.New(in, out).Xavier(seed), Wcomm: tensor.New(in, out).Xavier(seed + 1),
		B:      tensor.New(1, out),
		gWself: tensor.New(in, out), gWcomm: tensor.New(in, out), gB: tensor.New(1, out),
	}
}

func (l *CommNetLayer) InDim() int  { return l.Wself.Rows }
func (l *CommNetLayer) OutDim() int { return l.Wself.Cols }

func (l *CommNetLayer) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	l.self = selfRows(h, agg.NumOut).Clone()
	l.aggOut = agg.Forward(h)
	return l.Reforward()
}

func (l *CommNetLayer) Reforward() *tensor.Matrix {
	l.pre = tensor.MatMul(l.self, l.Wself)
	tensor.AddInPlace(l.pre, tensor.MatMul(l.aggOut, l.Wcomm))
	tensor.AddBiasInPlace(l.pre, l.B)
	return tensor.ReLU(l.pre)
}

func (l *CommNetLayer) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	gradPre := tensor.ReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gWself, tensor.MatMulATB(l.self, gradPre))
	tensor.AddInPlace(l.gWcomm, tensor.MatMulATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, tensor.BiasGrad(gradPre))
	gradSelf := tensor.MatMulABT(gradPre, l.Wself)
	gradAgg := tensor.MatMulABT(gradPre, l.Wcomm)
	gradIn := agg.Backward(gradAgg)
	// Self path contributes only to local rows.
	tensor.AddInPlace(selfRows(gradIn, agg.NumOut), gradSelf)
	return gradIn
}

// BackwardParams is Backward minus the discarded input gradient (see
// ParamsOnlyBackward).
func (l *CommNetLayer) BackwardParams(agg *Aggregator, gradOut *tensor.Matrix) {
	gradPre := tensor.ReLUGrad(l.pre, gradOut)
	tensor.AddInPlace(l.gWself, tensor.MatMulATB(l.self, gradPre))
	tensor.AddInPlace(l.gWcomm, tensor.MatMulATB(l.aggOut, gradPre))
	tensor.AddInPlace(l.gB, tensor.BiasGrad(gradPre))
}

func (l *CommNetLayer) Params() []*tensor.Matrix {
	return []*tensor.Matrix{l.Wself, l.Wcomm, l.B}
}
func (l *CommNetLayer) Grads() []*tensor.Matrix {
	return []*tensor.Matrix{l.gWself, l.gWcomm, l.gB}
}
func (l *CommNetLayer) ZeroGrads() { l.gWself.Zero(); l.gWcomm.Zero(); l.gB.Zero() }

func (l *CommNetLayer) FLOPs(vertices, edges int64) int64 {
	return 2*edges*int64(l.InDim()) + 4*vertices*int64(l.InDim())*int64(l.OutDim())
}

// GINLayer implements the GIN update with a two-layer MLP:
// out = ReLU(MLP((1+eps)·h_u + Σ_{v∈N(u)} h_v)) where
// MLP(x) = ReLU(x·W1 + b1)·W2 + b2. It is the most compute-heavy of the
// three models (two dense layers per propagation).
type GINLayer struct {
	Eps                     float32
	W1, B1, W2, B2          *tensor.Matrix
	gW1, gB1, gW2, gB2      *tensor.Matrix
	sum, pre1, hidden, pre2 *tensor.Matrix
}

// NewGINLayer builds a GIN layer whose MLP hidden width is twice the output
// width (making GIN the most compute-heavy model, as in the paper's lineup).
func NewGINLayer(in, out int, seed int64) *GINLayer {
	hidden := 2 * out
	return &GINLayer{
		Eps: 0.1,
		W1:  tensor.New(in, hidden).Xavier(seed), B1: tensor.New(1, hidden),
		W2: tensor.New(hidden, out).Xavier(seed + 1), B2: tensor.New(1, out),
		gW1: tensor.New(in, hidden), gB1: tensor.New(1, hidden),
		gW2: tensor.New(hidden, out), gB2: tensor.New(1, out),
	}
}

func (l *GINLayer) InDim() int  { return l.W1.Rows }
func (l *GINLayer) OutDim() int { return l.W2.Cols }

func (l *GINLayer) Forward(agg *Aggregator, h *tensor.Matrix) *tensor.Matrix {
	if agg.Mean {
		panic("gnn: GIN requires a sum aggregator")
	}
	l.sum = agg.Forward(h)
	tensor.Axpy(1+l.Eps, selfRows(h, agg.NumOut).Data, l.sum.Data)
	return l.Reforward()
}

// Reforward reuses sum, which already holds the (1+eps)·self term.
func (l *GINLayer) Reforward() *tensor.Matrix {
	l.pre1 = tensor.MatMul(l.sum, l.W1)
	tensor.AddBiasInPlace(l.pre1, l.B1)
	l.hidden = tensor.ReLU(l.pre1)
	l.pre2 = tensor.MatMul(l.hidden, l.W2)
	tensor.AddBiasInPlace(l.pre2, l.B2)
	return tensor.ReLU(l.pre2)
}

func (l *GINLayer) Backward(agg *Aggregator, gradOut *tensor.Matrix) *tensor.Matrix {
	gradPre2 := tensor.ReLUGrad(l.pre2, gradOut)
	tensor.AddInPlace(l.gW2, tensor.MatMulATB(l.hidden, gradPre2))
	tensor.AddInPlace(l.gB2, tensor.BiasGrad(gradPre2))
	gradHidden := tensor.MatMulABT(gradPre2, l.W2)
	gradPre1 := tensor.ReLUGrad(l.pre1, gradHidden)
	tensor.AddInPlace(l.gW1, tensor.MatMulATB(l.sum, gradPre1))
	tensor.AddInPlace(l.gB1, tensor.BiasGrad(gradPre1))
	gradSum := tensor.MatMulABT(gradPre1, l.W1)
	gradIn := agg.Backward(gradSum)
	// (1+eps) self contribution, to the local rows only.
	tensor.Axpy(1+l.Eps, gradSum.Data, selfRows(gradIn, agg.NumOut).Data)
	return gradIn
}

// BackwardParams is Backward minus the discarded input gradient (see
// ParamsOnlyBackward). The hidden-layer gradient chain through the MLP is
// still required for gW1; only the propagation back through the aggregation
// (gradSum, the scatter, and the self contribution) is skipped.
func (l *GINLayer) BackwardParams(agg *Aggregator, gradOut *tensor.Matrix) {
	gradPre2 := tensor.ReLUGrad(l.pre2, gradOut)
	tensor.AddInPlace(l.gW2, tensor.MatMulATB(l.hidden, gradPre2))
	tensor.AddInPlace(l.gB2, tensor.BiasGrad(gradPre2))
	gradHidden := tensor.MatMulABT(gradPre2, l.W2)
	gradPre1 := tensor.ReLUGrad(l.pre1, gradHidden)
	tensor.AddInPlace(l.gW1, tensor.MatMulATB(l.sum, gradPre1))
	tensor.AddInPlace(l.gB1, tensor.BiasGrad(gradPre1))
}

func (l *GINLayer) Params() []*tensor.Matrix {
	return []*tensor.Matrix{l.W1, l.B1, l.W2, l.B2}
}
func (l *GINLayer) Grads() []*tensor.Matrix {
	return []*tensor.Matrix{l.gW1, l.gB1, l.gW2, l.gB2}
}
func (l *GINLayer) ZeroGrads() { l.gW1.Zero(); l.gB1.Zero(); l.gW2.Zero(); l.gB2.Zero() }

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

// CacheFloatsPerVertex implementations: the forward tensors each layer keeps
// alive for its backward pass.

func (l *GCNLayer) CacheFloatsPerVertex() int64 {
	return int64(l.InDim() + l.OutDim()) // aggOut + pre
}

func (l *CommNetLayer) CacheFloatsPerVertex() int64 {
	return int64(2*l.InDim() + l.OutDim()) // self + aggOut + pre
}

func (l *GINLayer) CacheFloatsPerVertex() int64 {
	hidden := l.W1.Cols
	return int64(l.InDim() + 2*hidden + l.OutDim()) // sum + pre1 + hidden + pre2
}
