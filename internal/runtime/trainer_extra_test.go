package runtime

import (
	"math"
	"testing"

	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

// Feature caching must not change results: the cached layer-0 allgather is
// just memoization of an epoch-invariant exchange.
func TestFeatureCachingEquivalence(t *testing.T) {
	g := graph.CommunityGraph(200, 8, 4, 0.8, 41)
	n := g.NumVertices()
	model := gnn.NewModel(gnn.GCN, 6, 5, 2, 42)
	features := tensor.New(n, 6).FillRandom(43)
	targets := tensor.New(n, 5).FillRandom(44)

	run := func(cache bool) []float64 {
		c, _ := setup(t, g, 4, 41, 24)
		tr, err := NewTrainer(c, model, features, targets)
		if err != nil {
			t.Fatal(err)
		}
		tr.CacheFeatures = cache
		var losses []float64
		for e := 0; e < 3; e++ {
			loss, err := tr.Epoch()
			if err != nil {
				t.Fatal(err)
			}
			tr.Step(0.001)
			losses = append(losses, loss)
		}
		return losses
	}
	plain := run(false)
	cached := run(true)
	for e := range plain {
		if plain[e] != cached[e] {
			t.Fatalf("epoch %d: cached loss %v != plain %v", e, cached[e], plain[e])
		}
	}
}

// Multi-epoch training with caching still converges (the cache is reused,
// not recomputed, across epochs).
func TestFeatureCachingReuse(t *testing.T) {
	g := graph.Ring(64)
	model := gnn.NewModel(gnn.GCN, 4, 3, 2, 51)
	features := tensor.New(64, 4).FillRandom(52)
	targets := tensor.New(64, 3).FillRandom(53)
	c, _ := setup(t, g, 4, 51, 16)
	tr, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	tr.CacheFeatures = true
	first, err := tr.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if tr.cachedLayer0 == nil {
		t.Fatal("cache not populated")
	}
	tr.Step(0.01)
	var last float64
	for e := 0; e < 10; e++ {
		last, err = tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		tr.Step(0.01)
	}
	if last >= first {
		t.Fatalf("cached training did not converge: %v -> %v", first, last)
	}
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
