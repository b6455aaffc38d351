package main

import (
	"context"
	"fmt"
	"time"

	"dgcl"
	"dgcl/internal/graph"
	"dgcl/internal/worker"
)

// minSetups is the least number of set-ups a setup run takes its deciles over.
const minSetups = 5

// specInputs generates what worker.Build generates before it calls into
// dgcl, so set-up can be timed on a pre-generated graph.
func specInputs(spec worker.Spec) (*dgcl.Graph, *dgcl.Topology, *dgcl.Model, *dgcl.Matrix, *dgcl.Matrix, error) {
	ds, err := graph.DatasetByName(spec.Dataset)
	if err != nil {
		return nil, nil, nil, nil, nil, fmt.Errorf("spec inputs: %w", err)
	}
	topo, err := dgcl.TopologyForGPUCount(spec.GPUs)
	if err != nil {
		return nil, nil, nil, nil, nil, fmt.Errorf("spec inputs: %w", err)
	}
	g := ds.Generate(spec.Scale, spec.Seed)
	model := dgcl.NewModel(dgcl.ModelKind(spec.Model), spec.FeatureDim, spec.Hidden, spec.Layers, spec.Seed+1)
	features := dgcl.RandomFeatures(g.NumVertices(), spec.FeatureDim, spec.Seed+2)
	targets := dgcl.RandomFeatures(g.NumVertices(), spec.Hidden, spec.Seed+3)
	return g, topo, model, features, targets, nil
}

// setupOnce is one Init -> BuildCommInfo -> NewTrainer -> first epoch.
func setupOnce(ctx context.Context, spec worker.Spec, g *dgcl.Graph, topo *dgcl.Topology, model *dgcl.Model, features, targets *dgcl.Matrix) (*dgcl.System, float64, error) {
	sys := dgcl.Init(topo, dgcl.Options{Seed: spec.Seed, Overlap: dgcl.OverlapOptions{ChunkRows: spec.ChunkRows}})
	if err := sys.BuildCommInfo(g, spec.FeatureDim); err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	tr, err := sys.NewTrainer(model, features, targets)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	loss, err := tr.EpochContext(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: first epoch: %w", err)
	}
	return sys, loss, nil
}

// runSetup is the untraced run of setup-orkut16: the op is one set-up on a
// pre-generated graph, so setup_s, op_ms_p10 and ops_per_s_p90 are three
// views of the same samples.
func runSetup(ctx context.Context, w workload, spec worker.Spec, seconds float64) (*outcome, error) {
	o := newOutcome()
	ref, err := reference(ctx, spec)
	if err != nil {
		return nil, err
	}
	g, topo, model, features, targets, err := specInputs(spec)
	if err != nil {
		return nil, err
	}
	var durs []float64
	deadline := until(seconds)
	for n := 0; n < reps(minSetups, seconds) || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		_, loss, err := setupOnce(ctx, spec, g, topo, model, features, targets)
		if err != nil {
			return nil, err
		}
		durs = append(durs, ms(time.Since(t0)))
		o.attempted++
		if loss != ref.Losses[0] {
			o.failf("%s set-up %d: first-epoch loss %v, reference %v", w.name, n, loss, ref.Losses[0])
		}
	}
	rates := make([]float64, len(durs))
	for i, d := range durs {
		rates[i] = 1000 / d
	}
	o.metrics["setup_s"] = lowDecile(durs) / 1000
	o.metrics["op_ms_p10"] = lowDecile(durs)
	o.metrics["ops_per_s_p90"] = highDecile(rates)
	return o, nil
}
