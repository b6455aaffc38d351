package gnn

import (
	"fmt"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

// Model is a stack of propagation layers of one kind.
type Model struct {
	Kind   ModelKind
	Layers []Layer
}

// NewModel builds a numLayers-deep model with the given input and hidden
// dimensions (all hidden layers share hiddenDim, as in the paper's Table 4
// configurations). Weights are seeded deterministically from seed.
func NewModel(kind ModelKind, inDim, hiddenDim, numLayers int, seed int64) *Model {
	if numLayers < 1 {
		panic(fmt.Sprintf("gnn: model needs >=1 layers, got %d", numLayers))
	}
	m := &Model{Kind: kind}
	in := inDim
	for l := 0; l < numLayers; l++ {
		m.Layers = append(m.Layers, kind.NewLayer(in, hiddenDim, seed+int64(l)*1000))
		in = hiddenDim
	}
	return m
}

// Clone returns a model with identical weights and zeroed gradients.
func (m *Model) Clone() *Model {
	out := &Model{Kind: m.Kind}
	for i, l := range m.Layers {
		nl := m.Kind.NewLayer(l.InDim(), l.OutDim(), int64(i))
		for pi, p := range l.Params() {
			copy(nl.Params()[pi].Data, p.Data)
		}
		out.Layers = append(out.Layers, nl)
	}
	return out
}

// Step applies one SGD update with the given learning rate and clears grads.
func (m *Model) Step(lr float32) {
	for _, l := range m.Layers {
		params, grads := l.Params(), l.Grads()
		for i, p := range params {
			g := grads[i]
			for j := range p.Data {
				p.Data[j] -= lr * g.Data[j]
			}
		}
		l.ZeroGrads()
	}
}

// FLOPsPerEpoch estimates the forward+backward floating point work of one
// full-graph epoch over a (sub)graph with the given vertex and edge counts.
func (m *Model) FLOPsPerEpoch(vertices, edges int64) int64 {
	var f int64
	for _, l := range m.Layers {
		f += 3 * l.FLOPs(vertices, edges) // forward + ~2x backward
	}
	return f
}

// MSELossGrad computes 0.5*Σ(out-target)² and its gradient (out - target).
func MSELossGrad(out, target *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := tensor.New(out.Rows, out.Cols)
	return MSELossGradInto(grad, out, target), grad
}

// MSELossGradInto is MSELossGrad writing the gradient into grad (out's
// shape, overwritten) and returning the loss.
func MSELossGradInto(grad, out, target *tensor.Matrix) float64 {
	if grad.Rows != out.Rows || grad.Cols != out.Cols {
		panic(fmt.Sprintf("gnn: loss gradient %dx%d for %dx%d output", grad.Rows, grad.Cols, out.Rows, out.Cols))
	}
	for i := range out.Data {
		grad.Data[i] = out.Data[i] - target.Data[i]
	}
	// 0.5·Σd² equals the historical per-element Σ(0.5·d²) bit for bit:
	// scaling by a power of two is exact, so it commutes with each rounding.
	return 0.5 * tensor.SumSquares(grad.Data)
}

// SingleDevice trains a model on one device holding the whole graph; it is
// the reference implementation distributed training is verified against.
type SingleDevice struct {
	Model  *Model
	Agg    *Aggregator
	G      *graph.Graph
	Target *tensor.Matrix
}

// NewSingleDevice prepares single-device full-graph training with a
// deterministic synthetic regression target.
func NewSingleDevice(m *Model, g *graph.Graph, seed int64) *SingleDevice {
	n := g.NumVertices()
	outDim := m.Layers[len(m.Layers)-1].OutDim()
	return &SingleDevice{
		Model:  m,
		Agg:    NewAggregator(g, n, m.Kind.NeedsMeanAggregator()),
		G:      g,
		Target: tensor.New(n, outDim).FillRandom(seed),
	}
}

// Forward runs all layers over the features and returns the final
// embeddings together with the per-layer inputs (needed by Backward).
func (sd *SingleDevice) Forward(features *tensor.Matrix) (*tensor.Matrix, []*tensor.Matrix) {
	h := features
	inputs := make([]*tensor.Matrix, 0, len(sd.Model.Layers))
	for _, l := range sd.Model.Layers {
		inputs = append(inputs, h)
		h = l.Forward(sd.Agg, h)
	}
	return h, inputs
}

// Epoch runs one forward+backward pass, accumulates gradients and returns
// the loss. Call Model.Step to apply updates.
func (sd *SingleDevice) Epoch(features *tensor.Matrix) float64 {
	out, _ := sd.Forward(features)
	loss, grad := MSELossGrad(out, sd.Target)
	for i := len(sd.Model.Layers) - 1; i >= 0; i-- {
		grad = sd.Model.Layers[i].Backward(sd.Agg, grad)
	}
	return loss
}

// SparseFLOPsPerEpoch is the aggregation portion of FLOPsPerEpoch.
func (m *Model) SparseFLOPsPerEpoch(edges int64) int64 {
	var f int64
	for _, l := range m.Layers {
		f += 3 * l.SparseFLOPs(edges)
	}
	return f
}

// ActivationFloatsPerVertex estimates the float32 count each resident vertex
// costs during training: the input features, every layer's cached tensors,
// and the output plus its gradient.
func (m *Model) ActivationFloatsPerVertex(featureDim int) int64 {
	f := int64(featureDim)
	for _, l := range m.Layers {
		f += l.CacheFloatsPerVertex()
	}
	f += 2 * int64(m.Layers[len(m.Layers)-1].OutDim())
	return f
}
