// Package worker turns the single-process training loop into a supervised
// N-process run over the wire transport. A coordinator (Supervise) admits
// worker processes into a membership, hands each its node id, client ranks,
// and the generation's address table; every worker builds the identical
// system from the shared Spec, meshes with its peers over TCP (handshakes
// reject strangers, divergent plans, and stale generations), and trains its
// ranks while exchanging losses and gradients through runtime.PeerExchange.
// Every process keeps all K model replicas and steps them identically, so
// the final weights of every worker — and of a single-process run with the
// same Spec — are bit-identical.
//
// The membership layer (DESIGN.md §15) makes the run survive its processes:
// heartbeats renew per-worker leases, missed deadlines accumulate
// HealthTracker strikes (stalled → suspect → dead), and a membership change
// rolls the run forward one generation. A restarted worker re-dials with
// bounded backoff, presents its persisted run identity, reclaims its slot,
// and every member catches up from the newest checkpoint epoch they all hold
// intact; when nobody rejoins within the grace window the coordinator
// degrades the dead ranks onto the survivors over the live control sockets.
package worker

import (
	"context"
	"fmt"
	"math"
	"time"

	"dgcl"
	"dgcl/internal/fnv64"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
)

// Spec is the complete, JSON-serializable description of one training run.
// Every process (coordinator and workers) derives the identical graph,
// partition, plan, model, and inputs from it; nothing else may influence the
// math.
type Spec struct {
	Dataset    string // dataset name from the paper's Table 4 (graph.DatasetByName)
	Scale      int    // dataset downscale factor
	FeatureDim int    // input feature width; 0 means the dataset's native width
	Model      string // GCN | CommNet | GIN
	Hidden     int    // hidden layer width
	Layers     int    // GNN depth
	GPUs       int    // cluster size K
	Epochs     int
	Seed       int64
	LR         float64
	// ChunkRows is ignored; the transfer layout is runtime.ChunkRows. Kept
	// because cmd/dgclperf/setup.go compiles against it (ROADMAP 1(c)).
	ChunkRows int
}

func (s Spec) withDefaults() Spec {
	if s.Scale <= 0 {
		s.Scale = 256
	}
	if s.Hidden <= 0 {
		s.Hidden = 8
	}
	if s.Layers <= 0 {
		s.Layers = 2
	}
	if s.Epochs <= 0 {
		s.Epochs = 1
	}
	if s.LR == 0 {
		s.LR = 0.01
	}
	if s.Model == "" {
		s.Model = "GCN"
	}
	return s
}

// Report is one run's outcome: the per-epoch global losses and a digest of
// the final model weights. Identical Specs must produce identical Reports on
// every process, wire or no wire.
type Report struct {
	Losses   []float64
	ModelSum uint64
}

// Build deterministically constructs the system, model, and training inputs
// from the spec. Called identically by every process of a run.
func Build(spec Spec) (*dgcl.System, *dgcl.Model, *dgcl.Matrix, *dgcl.Matrix, error) {
	spec = spec.withDefaults()
	ds, err := graph.DatasetByName(spec.Dataset)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	kind, err := gnn.ParseModelKind(spec.Model)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("worker: %w", err)
	}
	g := ds.Generate(spec.Scale, spec.Seed)
	topo, err := dgcl.TopologyForGPUCount(spec.GPUs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	featDim := spec.FeatureDim
	if featDim <= 0 {
		featDim = ds.FeatureDim
	}
	sys := dgcl.Init(topo, dgcl.Options{Seed: spec.Seed})
	if err := sys.BuildCommInfo(g, featDim); err != nil {
		return nil, nil, nil, nil, err
	}
	model := dgcl.NewModel(kind, featDim, spec.Hidden, spec.Layers, spec.Seed+1)
	features := dgcl.RandomFeatures(g.NumVertices(), featDim, spec.Seed+2)
	targets := dgcl.RandomFeatures(g.NumVertices(), spec.Hidden, spec.Seed+3)
	return sys, model, features, targets, nil
}

// trainEpochs runs the epoch loop and digests the outcome.
func trainEpochs(ctx context.Context, sys *dgcl.System, model *dgcl.Model, features, targets *dgcl.Matrix, spec Spec) (*Report, error) {
	tr, err := sys.NewTrainer(model, features, targets)
	if err != nil {
		return nil, err
	}
	rep := &Report{Losses: make([]float64, spec.Epochs)}
	for e := 0; e < spec.Epochs; e++ {
		loss, err := tr.EpochAt(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("worker: epoch %d: %w", e, err)
		}
		tr.Step(float32(spec.LR))
		rep.Losses[e] = loss
	}
	rep.ModelSum = ModelDigest(tr.Models[0])
	return rep, nil
}

// TrainLocal runs the spec single-process (all ranks in this process, no
// wire): the baseline every multi-process run must match bit for bit.
func TrainLocal(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	sys, model, features, targets, err := Build(spec)
	if err != nil {
		return nil, err
	}
	return trainEpochs(ctx, sys, model, features, targets, spec)
}

// ModelDigest fingerprints the model weights: FNV-64a over every parameter
// float32's bits in deterministic order.
func ModelDigest(m *dgcl.Model) uint64 {
	h := fnv64.New()
	for _, layer := range m.Layers {
		for _, p := range layer.Params() {
			for _, x := range p.Data {
				h = h.U32(math.Float32bits(x))
			}
		}
	}
	return uint64(h)
}

// splitRanks assigns the K client ranks contiguously over w workers.
func splitRanks(k, w int) [][]int {
	out := make([][]int, w)
	for i := 0; i < w; i++ {
		lo, hi := i*k/w, (i+1)*k/w
		for r := lo; r < hi; r++ {
			out[i] = append(out[i], r)
		}
	}
	return out
}

const (
	controlTimeout = 60 * time.Second
	// resultTimeout bounds how long the coordinator waits for a worker's
	// training to finish, and a worker for its peers' results.
	resultTimeout = 10 * time.Minute
)

// clusterID names the run: it prefixes the coordinator's run ID, which in
// turn (suffixed with the membership generation) becomes the wire cluster ID,
// so workers handed different specs — or meshing for a stale generation —
// refuse to connect even before the plan digest check.
func clusterID(spec Spec) string {
	return fmt.Sprintf("dgcl-%s-%s-k%d-s%d", spec.Dataset, spec.Model, spec.GPUs, spec.Seed)
}
