package serve

import (
	"context"

	"dgcl"
)

// engine executes batched forwards over the partitioned model and owns the
// failover half of serving: when a collective reports a fail-stop dead
// device, recover degrades the system onto the survivors (System.Degrade —
// compact renumbering, vertex reassignment, replan through the plan cache)
// and rebuilds the inference trainer over the degraded cluster, so the next
// forward answers from the degraded replica.
type engine struct {
	sys      *dgcl.System
	model    *dgcl.Model // authoritative copy for rebuilds; never aliased
	features *dgcl.Matrix
	targets  *dgcl.Matrix // zero-filled; the serve path never computes a loss
	tr       *dgcl.Trainer
	rows     int
}

func newEngine(sys *dgcl.System, model *dgcl.Model, features *dgcl.Matrix) (*engine, error) {
	out := model.Layers[len(model.Layers)-1].OutDim()
	e := &engine{
		sys:      sys,
		model:    model.Clone(),
		features: features,
		targets:  dgcl.NewMatrix(features.Rows, out),
		rows:     features.Rows,
	}
	return e, e.rebuild()
}

// rebuild shards the current model and features over the system's active
// cluster (full fabric, or the degraded one after a recovery).
func (e *engine) rebuild() error {
	tr, err := e.sys.NewTrainer(e.model, e.features, e.targets)
	if err != nil {
		return err
	}
	e.tr = tr
	return nil
}

// setModel swaps the served weights (cloned) and rebuilds the replicas.
func (e *engine) setModel(m *dgcl.Model) error {
	e.model = m.Clone()
	return e.rebuild()
}

// forward runs one batched forward pass over every partition and returns the
// global embedding matrix (one row per vertex).
func (e *engine) forward(ctx context.Context) (*dgcl.Matrix, error) {
	return e.tr.ForwardContext(ctx, e.rows)
}

// recover degrades onto the survivors and rebuilds the inference replicas.
func (e *engine) recover(down []int) error {
	if err := e.sys.Degrade(down); err != nil {
		return err
	}
	return e.rebuild()
}
