package serve

import (
	"context"
	"fmt"

	"dgcl"
)

// engine runs the server's forwards over the partitioned model. It keeps one
// trainer across model versions: a new version's weights are copied into its
// replicas, so layer 0 keeps the aggregation of the (fixed) features and a
// refresh costs layer 0's dense update plus the layers above. The trainer is
// rebuilt only when the system's cluster changed under it (System.Degrade,
// from serve failover or from System.Train's crash recovery).
type engine struct {
	sys      *dgcl.System
	model    *dgcl.Model // authoritative weights for rebuilds; never aliased
	features *dgcl.Matrix
	targets  *dgcl.Matrix // zero-filled; the serve path never computes a loss
	tr       *dgcl.Trainer
	// rel is the relation tr was built over. The system builds a new one
	// with every cluster (BuildCommInfo, Degrade), so a different pointer
	// means tr's partitions may name dead devices.
	rel  *dgcl.Relation
	rows int
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
	e.tr, e.rel = tr, e.sys.Relation()
	return nil
}

// setModel copies m's weights into the authoritative model and into every
// replica. m must have the served model's kind, depth and parameter shapes;
// otherwise setModel changes nothing and returns an error.
func (e *engine) setModel(m *dgcl.Model) error {
	if err := sameShape(e.model, m); err != nil {
		return err
	}
	copyWeights(e.model, m)
	for _, r := range e.tr.Models {
		copyWeights(r, m)
	}
	return nil
}

// forward runs one forward pass over every partition and returns the global
// embedding matrix (one row per vertex), freshly allocated. It rebuilds the
// trainer first when the system's cluster has changed since it was built.
func (e *engine) forward(ctx context.Context) (*dgcl.Matrix, error) {
	if e.sys.Relation() != e.rel {
		if err := e.rebuild(); err != nil {
			return nil, fmt.Errorf("rebuilding over the degraded cluster: %w", err)
		}
	}
	return e.tr.ForwardContext(ctx, e.rows)
}

// sameShape reports why m's weights cannot replace have's.
func sameShape(have, m *dgcl.Model) error {
	if m == nil || m.Kind != have.Kind || len(m.Layers) != len(have.Layers) {
		return fmt.Errorf("model is not a %d-layer %s model like the served one", len(have.Layers), have.Kind)
	}
	for l, layer := range have.Layers {
		ps, qs := layer.Params(), m.Layers[l].Params()
		for i, p := range ps {
			if q := qs[i]; q.Rows != p.Rows || q.Cols != p.Cols {
				return fmt.Errorf("layer %d parameter %d is %dx%d, served model's is %dx%d", l, i, q.Rows, q.Cols, p.Rows, p.Cols)
			}
		}
	}
	return nil
}

// copyWeights copies src's parameters into dst's; the shapes must match.
func copyWeights(dst, src *dgcl.Model) {
	for l, layer := range dst.Layers {
		qs := src.Layers[l].Params()
		for i, p := range layer.Params() {
			copy(p.Data, qs[i].Data)
		}
	}
}
