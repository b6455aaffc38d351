package runtime

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

// requireSameModels fails unless every parameter of a and b agrees bit for
// bit (what worker.ModelDigest hashes).
func requireSameModels(t *testing.T, label string, a, b *gnn.Model) {
	t.Helper()
	for l := range a.Layers {
		pb := b.Layers[l].Params()
		for p, pa := range a.Layers[l].Params() {
			for i := range pa.Data {
				if math.Float32bits(pa.Data[i]) != math.Float32bits(pb[p].Data[i]) {
					t.Fatalf("%s: layer %d param %d element %d: %v != %v", label, l, p, i, pa.Data[i], pb[p].Data[i])
				}
			}
		}
	}
}

// A trainer aggregates layer 0 once: its later epochs rerun only layer 0's
// dense update, and must equal, bit for bit, a fresh trainer per epoch (which
// allgathers and aggregates the features every time) started from the
// stepped weights.
func TestLayer0AggregatedOncePerTrainer(t *testing.T) {
	g := graph.CommunityGraph(200, 8, 4, 0.8, 41)
	n := g.NumVertices()
	features := tensor.New(n, 6).FillRandom(43)
	targets := tensor.New(n, 5).FillRandom(44)
	c, _ := setup(t, g, 4, 41, 24)
	for _, kind := range gnn.AllModels {
		t.Run(string(kind), func(t *testing.T) {
			model := gnn.NewModel(kind, 6, 5, 2, 42)
			long, err := NewTrainer(c, model, features, targets)
			if err != nil {
				t.Fatal(err)
			}
			stepped := model
			for e := 0; e < 4; e++ {
				loss, err := long.Epoch()
				if err != nil {
					t.Fatal(err)
				}
				long.Step(0.01)
				if !long.aggregated0 {
					t.Fatal("layer 0 not marked aggregated after a successful epoch")
				}
				fresh, err := NewTrainer(c, stepped, features, targets)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Epoch()
				if err != nil {
					t.Fatal(err)
				}
				fresh.Step(0.01)
				if math.Float64bits(loss) != math.Float64bits(want) {
					t.Fatalf("epoch %d: loss %v, fresh trainer %v", e, loss, want)
				}
				stepped = fresh.Models[0]
				requireSameModels(t, fmt.Sprintf("epoch %d", e), long.Models[0], stepped)
			}
		})
	}
}

// A first epoch that fails in the layer-0 allgather leaves layer 0
// unaggregated, so the retried epoch allgathers the features again and
// equals a fresh trainer's first epoch.
func TestLayer0UnmarkedAfterFailedFirstEpoch(t *testing.T) {
	g := graph.CommunityGraph(120, 8, 4, 0.8, 7)
	n := g.NumVertices()
	model := gnn.NewModel(gnn.GCN, 5, 4, 2, 11)
	features := tensor.New(n, 5).FillRandom(12)
	targets := tensor.New(n, 4).FillRandom(13)
	c, _ := setup(t, g, 4, 7, 20)
	tr, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.EpochContext(ctx); err == nil {
		t.Fatal("EpochContext succeeded under a canceled context")
	}
	if tr.aggregated0 {
		t.Fatal("a failed layer-0 allgather marked layer 0 aggregated")
	}
	tr.ZeroGrads()
	loss, err := tr.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	tr.Step(0.01)
	fresh, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	fresh.Step(0.01)
	if math.Float64bits(loss) != math.Float64bits(want) {
		t.Fatalf("retried epoch loss %v, fresh trainer %v", loss, want)
	}
	requireSameModels(t, "retried epoch", tr.Models[0], fresh.Models[0])
}

// A 3-layer model must run K forward and K-1 backward exchanges and still
// match single-device training (the paper notes deeper GNNs are gaining
// relevance; replication cannot serve them, communication planning can).
func TestThreeLayerDistributedMatches(t *testing.T) {
	g := graph.CommunityGraph(120, 8, 4, 0.8, 61)
	n := g.NumVertices()
	model := gnn.NewModel(gnn.GCN, 4, 4, 3, 62)
	features := tensor.New(n, 4).FillRandom(63)
	targets := tensor.New(n, 4).FillRandom(64)

	ref := model.Clone()
	sd := gnn.NewSingleDevice(ref, g, 0)
	sd.Target = targets
	refLoss := sd.Epoch(features)

	c, _ := setup(t, g, 4, 61, 16)
	tr, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := tr.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-refLoss) > 1e-3*(1+refLoss) {
		t.Fatalf("3-layer distributed %v != single %v", loss, refLoss)
	}
}
