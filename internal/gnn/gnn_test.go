package gnn

import (
	"fmt"
	"math"
	"testing"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

func TestAggregatorMeanKnown(t *testing.T) {
	// Path 0-1-2 (symmetric). Mean aggregation of vertex 1 = (h0+h2)/2.
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}}, false)
	h := tensor.FromData(3, 1, []float32{1, 10, 3})
	agg := NewAggregator(g, 3, true)
	out := agg.Forward(h)
	if out.At(0, 0) != 10 || out.At(1, 0) != 2 || out.At(2, 0) != 10 {
		t.Fatalf("mean agg = %v", out.Data)
	}
	sum := NewAggregator(g, 3, false)
	out = sum.Forward(h)
	if out.At(1, 0) != 4 {
		t.Fatalf("sum agg = %v", out.Data)
	}
}

func TestAggregatorBackwardIsTranspose(t *testing.T) {
	g := graph.ErdosRenyi(20, 80, 1)
	agg := NewAggregator(g, 20, true)
	// <A h, g> == <h, Aᵀ g> for random h, g.
	h := tensor.New(20, 3).FillRandom(2)
	gr := tensor.New(20, 3).FillRandom(3)
	ah := agg.Forward(h)
	atg := agg.Backward(gr)
	var lhs, rhs float64
	for i := range ah.Data {
		lhs += float64(ah.Data[i]) * float64(gr.Data[i])
	}
	for i := range h.Data {
		rhs += float64(h.Data[i]) * float64(atg.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*math.Abs(lhs) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestAggregatorPartialOutput(t *testing.T) {
	// Local-graph shape: only the first 2 of 4 rows are produced.
	g := graph.MustFromEdges(4, []graph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}}, false)
	h := tensor.FromData(4, 1, []float32{0, 0, 5, 7})
	agg := NewAggregator(g, 2, false)
	out := agg.Forward(h)
	if out.Rows != 2 || out.At(0, 0) != 5 || out.At(1, 0) != 7 {
		t.Fatalf("partial agg = %+v", out)
	}
	back := agg.Backward(tensor.FromData(2, 1, []float32{1, 2}))
	if back.Rows != 4 || back.At(2, 0) != 1 || back.At(3, 0) != 2 || back.At(0, 0) != 0 {
		t.Fatalf("partial backward = %v", back.Data)
	}
}

// pushAwayFromKinks scales weight matrices down and lifts biases so that
// every ReLU pre-activation is strictly positive: finite differences are
// then exact derivatives instead of straddling the ReLU kink.
func pushAwayFromKinks(layer Layer) {
	for _, p := range layer.Params() {
		if p.Rows == 1 { // bias
			for i := range p.Data {
				p.Data[i] = 1
			}
		} else {
			tensor.ScaleInPlace(p, 0.1)
		}
	}
}

// numericalGradCheck verifies analytic parameter gradients of one layer by
// central differences on a tiny graph.
func numericalGradCheck(t *testing.T, kind ModelKind) {
	t.Helper()
	g := graph.Ring(6)
	model := NewModel(kind, 3, 4, 1, 42)
	layer := model.Layers[0]
	pushAwayFromKinks(layer)
	agg := NewAggregator(g, 6, kind.NeedsMeanAggregator())
	features := tensor.New(6, 3).FillRandom(1)
	target := tensor.New(6, 4).FillRandom(2)

	lossOf := func() float64 {
		out := layer.Forward(agg, features)
		loss, _ := MSELossGrad(out, target)
		return loss
	}
	// Analytic gradients.
	layer.ZeroGrads()
	out := layer.Forward(agg, features)
	_, grad := MSELossGrad(out, target)
	layer.Backward(agg, grad)

	const eps = 1e-2
	for pi, p := range layer.Params() {
		gAnalytic := layer.Grads()[pi]
		// Check a handful of entries.
		for _, idx := range []int{0, len(p.Data) / 2, len(p.Data) - 1} {
			orig := p.Data[idx]
			p.Data[idx] = orig + eps
			lp := lossOf()
			p.Data[idx] = orig - eps
			lm := lossOf()
			p.Data[idx] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(gAnalytic.Data[idx])
			if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
				t.Fatalf("%s param %d idx %d: numeric %v analytic %v", kind, pi, idx, numeric, analytic)
			}
		}
	}
}

func TestGCNGradCheck(t *testing.T)     { numericalGradCheck(t, GCN) }
func TestCommNetGradCheck(t *testing.T) { numericalGradCheck(t, CommNet) }
func TestGINGradCheck(t *testing.T)     { numericalGradCheck(t, GIN) }

// numericalInputGradCheck verifies the gradient w.r.t. the input embeddings
// (the quantity that flows across GPUs in distributed backward passes).
func numericalInputGradCheck(t *testing.T, kind ModelKind) {
	t.Helper()
	g := graph.Ring(5)
	layer := kind.NewLayer(2, 3, 7)
	pushAwayFromKinks(layer)
	agg := NewAggregator(g, 5, kind.NeedsMeanAggregator())
	features := tensor.New(5, 2).FillRandom(3)
	target := tensor.New(5, 3).FillRandom(4)

	layer.ZeroGrads()
	out := layer.Forward(agg, features)
	_, grad := MSELossGrad(out, target)
	gradIn := layer.Backward(agg, grad)

	const eps = 1e-2
	for _, idx := range []int{0, 3, 9} {
		orig := features.Data[idx]
		features.Data[idx] = orig + eps
		lp, _ := MSELossGrad(layer.Forward(agg, features), target)
		features.Data[idx] = orig - eps
		lm, _ := MSELossGrad(layer.Forward(agg, features), target)
		features.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(gradIn.Data[idx])
		if math.Abs(numeric-analytic) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("%s input grad idx %d: numeric %v analytic %v", kind, idx, numeric, analytic)
		}
	}
}

func TestGCNInputGradCheck(t *testing.T)     { numericalInputGradCheck(t, GCN) }
func TestCommNetInputGradCheck(t *testing.T) { numericalInputGradCheck(t, CommNet) }
func TestGINInputGradCheck(t *testing.T)     { numericalInputGradCheck(t, GIN) }

func TestTrainingReducesLoss(t *testing.T) {
	for _, kind := range AllModels {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			g := graph.CommunityGraph(100, 8, 4, 0.8, 5)
			model := NewModel(kind, 8, 8, 2, 11)
			sd := NewSingleDevice(model, g, 13)
			features := tensor.New(g.NumVertices(), 8).FillRandom(17)
			first := sd.Epoch(features)
			model.Step(0.01)
			var last float64
			for i := 0; i < 20; i++ {
				last = sd.Epoch(features)
				model.Step(0.01)
			}
			if last >= first {
				t.Fatalf("%s loss did not decrease: %v -> %v", kind, first, last)
			}
		})
	}
}

func TestModelCloneIndependent(t *testing.T) {
	m := NewModel(GCN, 4, 4, 2, 1)
	c := m.Clone()
	m.Layers[0].Params()[0].Data[0] = 99
	if c.Layers[0].Params()[0].Data[0] == 99 {
		t.Fatal("clone shares weights")
	}
}

func TestStepZerosGrads(t *testing.T) {
	g := graph.Ring(6)
	m := NewModel(GCN, 3, 3, 1, 1)
	sd := NewSingleDevice(m, g, 2)
	features := tensor.New(6, 3).FillRandom(3)
	sd.Epoch(features)
	m.Step(0.1)
	for _, l := range m.Layers {
		for _, gr := range l.Grads() {
			if tensor.Frobenius(gr) != 0 {
				t.Fatal("grads not zeroed after Step")
			}
		}
	}
}

func TestFLOPsOrdering(t *testing.T) {
	// GCN < CommNet < GIN compute complexity (the paper's premise for the
	// model lineup).
	var flops [3]int64
	for i, kind := range AllModels {
		m := NewModel(kind, 128, 128, 2, 1)
		flops[i] = m.FLOPsPerEpoch(10000, 100000)
	}
	if !(flops[0] < flops[1] && flops[1] < flops[2]) {
		t.Fatalf("FLOPs ordering violated: %v", flops)
	}
}

func TestDeterministicForward(t *testing.T) {
	g := graph.Ring(10)
	run := func() float64 {
		m := NewModel(GIN, 4, 4, 2, 5)
		sd := NewSingleDevice(m, g, 6)
		f := tensor.New(10, 4).FillRandom(7)
		return sd.Epoch(f)
	}
	if run() != run() {
		t.Fatal("training not deterministic")
	}
}

func TestNewModelPanicsOnZeroLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel(GCN, 4, 4, 0, 1)
}

func TestGINRejectsMeanAggregator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := graph.Ring(4)
	l := NewGINLayer(2, 2, 1)
	l.Forward(NewAggregator(g, 4, true), tensor.New(4, 2))
}

// Reforward after an optimizer step must be a fresh Forward on the same
// input with the stepped weights, bit for bit, and leave behind the state
// that fresh Forward leaves for Backward: the trainer reruns layer 0 this
// way every epoch after its first.
func TestReforwardMatchesFreshForward(t *testing.T) {
	g := graph.ErdosRenyi(30, 120, 3)
	for _, kind := range AllModels {
		t.Run(string(kind), func(t *testing.T) {
			// Local-graph shape: 20 output rows over 30 input rows.
			agg := NewAggregator(g, 20, kind.NeedsMeanAggregator())
			h := tensor.New(30, 6).FillRandom(5)
			gradOut := tensor.New(20, 4).FillRandom(6)
			m := NewModel(kind, 6, 4, 1, 7)
			// The output is the layer's own buffer, which Reforward rewrites.
			first := m.Layers[0].Forward(agg, h).Clone()
			m.Layers[0].Backward(agg, gradOut)
			m.Step(0.05)

			fresh := m.Clone()
			got := m.Layers[0].Reforward()
			requireSameBits(t, "Reforward", got, fresh.Layers[0].Forward(agg, h))
			if tensor.MaxAbsDiff(got, first) == 0 {
				t.Fatal("the step did not move the output; the test is vacuous")
			}
			requireSameBits(t, "input gradient after Reforward",
				m.Layers[0].Backward(agg, gradOut), fresh.Layers[0].Backward(agg, gradOut))
			for i, gr := range fresh.Layers[0].Grads() {
				requireSameBits(t, fmt.Sprintf("param %d gradient after Reforward", i), m.Layers[0].Grads()[i], gr)
			}
		})
	}
}
