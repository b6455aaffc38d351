package runtime

import (
	"context"
	"fmt"

	"dgcl/internal/collective"
	"dgcl/internal/gnn"
	"dgcl/internal/tensor"
)

// Trainer runs distributed full-graph GNN training on a Cluster: every
// client holds a replica of the model, its graph partition, and its slice of
// the features and targets. Each layer's execution interleaves a
// graphAllgather (remote embeddings in), local single-GPU layer compute, and
// in the backward pass a reverse allgather (remote gradients out), exactly
// the §6.3 integration. Model gradients are allreduced (summed) across
// clients before every optimizer step so replicas stay identical. Layer 0
// aggregates Features once per trainer, so they must not change after the
// first forward.
type Trainer struct {
	Cluster  *Cluster
	Models   []*gnn.Model
	Aggs     []*gnn.Aggregator
	Features []*tensor.Matrix
	Targets  []*tensor.Matrix
	// Peers, when non-nil, synchronizes losses and gradients with the other
	// processes of a multi-process run (worker mode: Cluster.Ranks names the
	// locally-executed clients). Every process keeps all K model replicas
	// and steps them identically, so the final weights are bit-identical to
	// an in-process run with the same seed.
	Peers PeerExchange
	// aggregated0 is set once layer 0 has aggregated the features on every
	// active rank. Training never changes the features, so that aggregation
	// is the same matrix every epoch (§3 strategy (1)): later forwards run
	// no layer-0 allgather and rerun only layer 0's dense update.
	aggregated0 bool
}

// NewTrainer shards the global features/targets across the cluster's
// partitions (the dispatch_features step of Listing 1) and replicates the
// model onto every client.
func NewTrainer(c *Cluster, model *gnn.Model, features, targets *tensor.Matrix) (*Trainer, error) {
	tr := &Trainer{Cluster: c}
	for d := 0; d < c.K; d++ {
		lg := c.Locals[d]
		tr.Models = append(tr.Models, model.Clone())
		tr.Aggs = append(tr.Aggs, gnn.NewAggregator(lg.G, lg.NumLocal, model.Kind.NeedsMeanAggregator()))
		tr.Features = append(tr.Features, tensor.GatherRows(features, c.Rel.Local[d]))
		tr.Targets = append(tr.Targets, tensor.GatherRows(targets, c.Rel.Local[d]))
	}
	return tr, nil
}

// Epoch runs one epoch with a background context; see EpochContext.
func (tr *Trainer) Epoch() (float64, error) {
	return tr.EpochContext(context.Background())
}

// EpochAt runs one epoch after advancing the cluster's crash clock: under a
// CrashConfig schedule, devices scheduled to die at this epoch will fail the
// first transfer reaching their stage. Callers of the resilient loop use it
// so crash injection is a deterministic function of the epoch counter.
func (tr *Trainer) EpochAt(ctx context.Context, epoch int) (float64, error) {
	if tr.Cluster.Health != nil {
		tr.Cluster.Health.BeginEpoch(epoch)
	}
	return tr.EpochContext(ctx)
}

// ZeroGrads clears the accumulated layer gradients on every replica. An
// aborted epoch leaves partially-accumulated gradients behind; recovery
// paths that retry an epoch on the same trainer must zero them first.
func (tr *Trainer) ZeroGrads() {
	for _, m := range tr.Models {
		for _, l := range m.Layers {
			l.ZeroGrads()
		}
	}
}

// EpochContext runs one distributed forward+backward pass, allreduces the
// model gradients, and returns the global loss. Layer compute runs
// concurrently on all clients; allgathers synchronize them, as on real
// hardware. Every collective observes ctx: cancellation surfaces as a
// CollectiveError from the allgather in flight.
func (tr *Trainer) EpochContext(ctx context.Context) (float64, error) {
	c := tr.Cluster
	numLayers := len(tr.Models[0].Layers)
	active := c.ActiveRanks()
	h, err := tr.forward(ctx)
	if err != nil {
		return 0, err
	}
	// Loss on local outputs; worker mode fills in the other processes' rank
	// losses so the global loss stays a bit-identical rank-ordered sum.
	losses := make([]float64, c.K)
	grads := make([]*tensor.Matrix, c.K)
	for _, d := range active {
		losses[d], grads[d] = gnn.MSELossGrad(h[d], tr.Targets[d])
	}
	if tr.Peers != nil {
		if err := tr.Peers.ExchangeFloat64s(ctx, "loss", active, losses); err != nil {
			return 0, fmt.Errorf("runtime: loss exchange: %w", err)
		}
	}
	loss := tensor.Sum64(losses)
	// Backward: per layer, concurrent local backward then reverse allgather.
	// The gradient with respect to the layer-0 input features is discarded
	// (features are not trained), so the final backward allgather is skipped
	// — a trainer's first 2-layer epoch communicates 2 forward + 1 backward
	// allgathers, every later one 1 + 1 (see forward).
	for l := numLayers - 1; l >= 0; l-- {
		gradFull := make([]*tensor.Matrix, c.K)
		c.onEachRank(func(d int) {
			layer := tr.Models[d].Layers[l]
			// Layer 0's input gradient would be discarded below; layers that
			// support it accumulate parameter gradients only (the updates
			// are identical, see gnn.ParamsOnlyBackward).
			if po, ok := layer.(gnn.ParamsOnlyBackward); ok && l == 0 {
				po.BackwardParams(tr.Aggs[d], grads[d])
				return
			}
			gradFull[d] = layer.Backward(tr.Aggs[d], grads[d])
		})
		if l == 0 {
			break
		}
		var err error
		grads, err = c.BackwardAllgatherContext(ctx, gradFull)
		if err != nil {
			return 0, fmt.Errorf("runtime: backward allgather layer %d: %w", l, err)
		}
	}
	if err := tr.allreduceGrads(ctx); err != nil {
		return 0, err
	}
	return loss, nil
}

// forward runs the forward passes — per layer, allgather then concurrent
// local layer compute on every locally-executed client — and returns each
// client's output rows (nil entries for clients hosted by other processes).
// Once layer 0 has aggregated the features, it only reruns its dense update.
// Every rank of every process flips aggregated0 at the same forward (each
// generation builds new trainers everywhere), so all agree on which
// collectives an epoch runs.
func (tr *Trainer) forward(ctx context.Context) ([]*tensor.Matrix, error) {
	c := tr.Cluster
	h := tr.Features
	for l := range tr.Models[0].Layers {
		next := make([]*tensor.Matrix, c.K)
		if l == 0 && tr.aggregated0 {
			c.onEachRank(func(d int) {
				next[d] = tr.Models[d].Layers[0].Reforward()
			})
			h = next
			continue
		}
		full, err := c.AllgatherContext(ctx, h)
		if err != nil {
			return nil, fmt.Errorf("runtime: forward allgather layer %d: %w", l, err)
		}
		c.onEachRank(func(d int) {
			next[d] = tr.Models[d].Layers[l].Forward(tr.Aggs[d], full[d])
		})
		h = next
		if l == 0 {
			tr.aggregated0 = true
		}
	}
	return h, nil
}

// allreduceGrads synchronizes every parameter gradient across clients with a
// ring allreduce (the model-synchronization step DGCL delegates to Horovod /
// PyTorch DDP, §6.3; GNN models are small so no further optimization is
// needed). Gradients of one layer/param are reduced together as one buffer.
// In worker mode each process first exchanges its locally-computed rank
// gradients with its peers, then runs the same local ring over all K
// buffers — the reduction order is identical everywhere, so the summed
// gradients (and therefore the stepped weights) are bit-identical to an
// in-process run.
func (tr *Trainer) allreduceGrads(ctx context.Context) error {
	numLayers := len(tr.Models[0].Layers)
	active := tr.Cluster.ActiveRanks()
	bufs := make([]*tensor.Matrix, tr.Cluster.K)
	for l := 0; l < numLayers; l++ {
		numParams := len(tr.Models[0].Layers[l].Grads())
		for p := 0; p < numParams; p++ {
			for d := 0; d < tr.Cluster.K; d++ {
				bufs[d] = tr.Models[d].Layers[l].Grads()[p]
			}
			if tr.Peers != nil {
				tag := fmt.Sprintf("grad.%d.%d", l, p)
				if err := tr.Peers.ExchangeMatrices(ctx, tag, active, bufs); err != nil {
					return fmt.Errorf("runtime: gradient exchange layer %d param %d: %w", l, p, err)
				}
			}
			// Same-shaped replicas by construction; the ring cannot fail.
			if err := collective.RingAllreduce(bufs); err != nil {
				panic(fmt.Sprintf("runtime: gradient allreduce: %v", err))
			}
		}
	}
	return nil
}

// Step applies one SGD step on every replica (identical because gradients
// were allreduced).
func (tr *Trainer) Step(lr float32) {
	for _, m := range tr.Models {
		m.Step(lr)
	}
}

// StepWith applies one optimizer step per replica. opts must hold one
// optimizer per GPU (each keeps its own moment state; replicas stay
// identical because gradients are allreduced before stepping).
func (tr *Trainer) StepWith(opts []gnn.Optimizer) error {
	if len(opts) != len(tr.Models) {
		return fmt.Errorf("runtime: %d optimizers for %d replicas", len(opts), len(tr.Models))
	}
	for d, m := range tr.Models {
		opts[d].Step(m)
	}
	return nil
}

// GatherOutput reassembles per-client local rows into a global matrix using
// the partition's vertex ordering (for verification against single-device
// training).
func (tr *Trainer) GatherOutput(local []*tensor.Matrix, globalRows int) *tensor.Matrix {
	out := tensor.New(globalRows, local[0].Cols)
	for d, m := range local {
		for i, v := range tr.Cluster.Rel.Local[d] {
			copy(out.Row(int(v)), m.Row(i))
		}
	}
	return out
}

// Forward runs the forward passes with a background context; see
// ForwardContext.
func (tr *Trainer) Forward(globalRows int) (*tensor.Matrix, error) {
	return tr.ForwardContext(context.Background(), globalRows)
}

// ForwardContext runs only the forward passes and returns the global output
// matrix, for inference-style verification. Every allgather observes ctx.
func (tr *Trainer) ForwardContext(ctx context.Context, globalRows int) (*tensor.Matrix, error) {
	h, err := tr.forward(ctx)
	if err != nil {
		return nil, err
	}
	return tr.GatherOutput(h, globalRows), nil
}
