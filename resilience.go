package dgcl

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"dgcl/internal/checkpoint"
	"dgcl/internal/comm"
	"dgcl/internal/gnn"
	"dgcl/internal/partition"
	"dgcl/internal/runtime"
	"dgcl/internal/topology"
)

// Crash-tolerant training (DESIGN.md §10). DGCL's separation of the
// communication relation from the physical topology makes recovery cheap:
// when a device fails fail-stop, its vertices are reassigned to the
// least-loaded survivors, the SPST planner replans over the degraded fabric
// (hitting the plan cache on repeat failures), and training resumes from the
// newest intact checkpoint. A resume with no crash is bit-identical to an
// uninterrupted run; a crashed-and-recovered run converges to the same loss
// band over the surviving replicas.

// AliveDevices returns the original device ids still participating,
// ascending (all devices before any Degrade).
func (s *System) AliveDevices() []int {
	if s.alive != nil {
		return append([]int(nil), s.alive...)
	}
	out := make([]int, s.topo.NumGPUs())
	for i := range out {
		out[i] = i
	}
	return out
}

// Degrade removes the given devices (original ids) from the system:
// survivors are renumbered compactly, the dead devices' vertices are
// reassigned to the least-loaded survivors (deterministically: ascending
// vertex id, ties to the lower device index), the communication relation is
// rebuilt and the planner re-run over the degraded fabric, and the recorded
// run options — including the crash/health trackers, so dead devices stay
// dead — are reapplied to the rebuilt cluster. Devices already removed are
// ignored; unknown ids are an error.
func (s *System) Degrade(down []int) error {
	if err := s.ready(); err != nil {
		return err
	}
	alive := s.AliveDevices()
	pos := make(map[int]int, len(alive)) // original id -> current compact index
	for i, id := range alive {
		pos[id] = i
	}
	deadCompact := make(map[int]bool)
	for _, id := range down {
		if id < 0 || id >= s.topo.NumGPUs() {
			return fmt.Errorf("dgcl: cannot degrade unknown device %d", id)
		}
		if ci, ok := pos[id]; ok {
			deadCompact[ci] = true
		}
	}
	if len(deadCompact) == 0 {
		return nil
	}
	if len(deadCompact) >= len(alive) {
		return fmt.Errorf("dgcl: removing %v leaves no survivors", down)
	}
	// Survivor renumbering: old compact index -> new compact index.
	newIndex := make([]int, len(alive))
	var newAlive []int
	var compactDown []int
	for ci, id := range alive {
		if deadCompact[ci] {
			newIndex[ci] = -1
			compactDown = append(compactDown, ci)
			continue
		}
		newIndex[ci] = len(newAlive)
		newAlive = append(newAlive, id)
	}
	dtopo, err := topology.Without(s.curTopo(), compactDown)
	if err != nil {
		return err
	}
	// Reassign: survivors keep their vertices; each dead device's vertices
	// go to the least-loaded survivor at the moment of assignment.
	newK := len(newAlive)
	loads := make([]int, newK)
	oldAssign := s.part.Assign
	for _, a := range oldAssign {
		if ni := newIndex[a]; ni >= 0 {
			loads[ni]++
		}
	}
	leastLoaded := func() int {
		best := 0
		for i := 1; i < newK; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		return best
	}
	newAssign := make([]int32, len(oldAssign))
	for v, a := range oldAssign {
		if ni := newIndex[a]; ni >= 0 {
			newAssign[v] = int32(ni)
			continue
		}
		t := leastLoaded()
		newAssign[v] = int32(t)
		loads[t]++
	}
	p := &partition.Partition{K: newK, Assign: newAssign}
	rel, err := comm.Build(s.g, p)
	if err != nil {
		return err
	}
	plan, locals, err := s.planAndLocalGraphs(s.g, rel, dtopo, s.featureDim)
	if err != nil {
		return err
	}
	clu, err := runtime.NewCluster(rel, locals, plan)
	if err != nil {
		return err
	}
	s.part, s.rel, s.locals, s.plan, s.clu = p, rel, locals, plan, clu
	s.dtopo, s.alive = dtopo, newAlive
	// Worker mode survives a degrade: this process's rank restriction is
	// renumbered through the same survivor mapping as the cluster (dead ranks
	// drop out), so clu.Ranks never dangles outside the new [0, K'). The
	// supervised membership layer (internal/worker) still re-meshes and calls
	// SetWorkerMode with the fresh wire node afterwards.
	if s.ranks != nil {
		remapped := make([]int, 0, len(s.ranks))
		for _, r := range s.ranks {
			if r >= 0 && r < len(newIndex) && newIndex[r] >= 0 {
				remapped = append(remapped, newIndex[r])
			}
		}
		s.ranks = remapped
	}
	s.applyRunOptions()
	return nil
}

// pendingDown returns the devices the trackers judged dead that are still in
// the active cluster — the set Degrade must remove.
func (s *System) pendingDown() []int {
	if s.crash == nil {
		return nil
	}
	cur := make(map[int]bool)
	for _, id := range s.AliveDevices() {
		cur[id] = true
	}
	var out []int
	for _, d := range s.crash.DownDevices() {
		if cur[d] {
			out = append(out, d)
		}
	}
	return out
}

// TrainOptions configures the resilient training loop.
type TrainOptions struct {
	// Epochs is the target epoch count (required).
	Epochs int
	// NewOptimizer builds one optimizer per replica (and per rebuild after
	// recovery); every call must return an identically-configured optimizer.
	// Nil means plain SGD with lr 0.01.
	NewOptimizer func() Optimizer
	// CheckpointDir enables durable checkpoints in this directory; empty
	// disables checkpointing (recovery then continues from the in-memory
	// replica state).
	CheckpointDir string
	// Resume starts from the newest intact checkpoint in CheckpointDir when
	// one exists (a fresh start otherwise).
	Resume bool
	// OnEpoch, when non-nil, observes every completed epoch.
	OnEpoch func(epoch int, loss float64)
	// OnRecovery, when non-nil, observes every completed recovery.
	OnRecovery func(RecoveryEvent)
}

// epochRetries bounds Train's retries of one epoch on transient
// (non-device-down) collective failures before it gives up.
const epochRetries = 2

// RecoveryEvent describes one completed crash recovery.
type RecoveryEvent struct {
	// FailedEpoch is the epoch whose collective detected the death.
	FailedEpoch int
	// Down lists the devices removed (original ids).
	Down []int
	// Survivors lists the devices continuing (original ids).
	Survivors []int
	// ResumedEpoch is where training restarted (the restored checkpoint's
	// epoch, or FailedEpoch when recovery continued from in-memory state).
	ResumedEpoch int
	// Generation is the checkpoint generation restored, -1 when recovery
	// used in-memory state.
	Generation int
}

// TrainResult reports a resilient training run.
type TrainResult struct {
	// Losses[e] is the global loss of epoch e as last executed (zero for
	// epochs before a resume's start). After a recovery onto fewer devices
	// the loss is summed over survivors only.
	Losses []float64
	// StartEpoch is where this process began (non-zero after Resume).
	StartEpoch int
	// Model is the final trained model (one replica; replicas are identical).
	Model *Model
	// Recoveries lists every crash recovery performed, in order.
	Recoveries []RecoveryEvent
	// Checkpoints counts checkpoints written by this run.
	Checkpoints int
}

// Train runs the resilient training loop: epochs with periodic durable
// checkpoints, transient-failure retries (epochRetries per epoch), and
// device-down recovery (degrade to survivors, replan, restore newest intact
// checkpoint, continue) until every device but the last has died.
// model/features/targets are global; sharding follows the active partition
// and is redone on every recovery.
func (s *System) Train(ctx context.Context, model *Model, features, targets *Matrix, opts TrainOptions) (*TrainResult, error) {
	if err := s.ready(); err != nil {
		return nil, err
	}
	if opts.Epochs <= 0 {
		return nil, fmt.Errorf("dgcl: TrainOptions.Epochs must be >= 1, got %d", opts.Epochs)
	}
	newOpt := opts.NewOptimizer
	if newOpt == nil {
		newOpt = func() Optimizer { return gnn.NewSGD(0.01, 0) }
	}
	maxRecoveries := s.topo.NumGPUs() - 1
	s.ensureResilience(0)
	s.applyRunOptions()

	var store *checkpoint.Store
	if opts.CheckpointDir != "" {
		store = checkpoint.NewStore(opts.CheckpointDir)
	}

	start := 0
	var optState []byte
	if opts.Resume && store != nil {
		snap, _, err := store.Load()
		switch {
		case err == nil:
			if snap.Seed != s.opts.Seed {
				return nil, fmt.Errorf("dgcl: checkpoint seed %d != system seed %d; resuming would break determinism",
					snap.Seed, s.opts.Seed)
			}
			if probe := newOpt(); probe.Name() != snap.OptName {
				return nil, fmt.Errorf("dgcl: checkpoint optimizer %q != configured %q", snap.OptName, probe.Name())
			}
			model, start, optState = snap.Model, snap.Epoch, snap.OptState
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh start.
		default:
			return nil, err
		}
	}

	result := &TrainResult{Losses: make([]float64, opts.Epochs), StartEpoch: start}
	tr, optimizers, err := s.buildTrainer(model, features, targets, newOpt, optState)
	if err != nil {
		return nil, err
	}
	if start >= opts.Epochs {
		result.Model = tr.Models[0].Clone()
		return result, nil
	}

	epoch, retries, recoveries := start, 0, 0
	for epoch < opts.Epochs {
		loss, err := tr.EpochAt(ctx, epoch)
		if err == nil {
			if err := tr.StepWith(optimizers); err != nil {
				return result, err
			}
			result.Losses[epoch] = loss
			if opts.OnEpoch != nil {
				opts.OnEpoch(epoch, loss)
			}
			s.fireEpochEnd(epoch, tr.Models[0])
			epoch++
			retries = 0
			if store != nil {
				if _, serr := s.saveCheckpoint(store, tr, optimizers[0], epoch); serr != nil {
					return result, serr
				}
				result.Checkpoints++
			}
			continue
		}
		if ctx.Err() != nil {
			return result, err
		}
		down := s.pendingDown()
		if len(down) == 0 {
			// Transient collective failure (lossy links beyond the retry
			// budget): clear the partial gradients and retry the epoch.
			retries++
			if retries > epochRetries {
				return result, fmt.Errorf("dgcl: epoch %d failed %d times: %w", epoch, retries, err)
			}
			tr.ZeroGrads()
			continue
		}
		if recoveries >= maxRecoveries {
			return result, fmt.Errorf("dgcl: recovery budget (%d) exhausted: %w", maxRecoveries, err)
		}
		recoveries++
		failedEpoch := epoch
		if derr := s.Degrade(down); derr != nil {
			return result, derr
		}
		// Restore: newest intact checkpoint when one exists, else continue
		// from the in-memory replica state (weights are unchanged since the
		// last completed epoch — a failed epoch never reaches the optimizer
		// step).
		restored, resumeEpoch, gen := tr.Models[0], epoch, -1
		restoredOptState := s.encodeOptimizerState(optimizers[0], tr.Models[0])
		if store != nil {
			snap, g, lerr := store.Load()
			switch {
			case lerr == nil:
				restored, resumeEpoch, gen = snap.Model, snap.Epoch, g
				restoredOptState = snap.OptState
			case errors.Is(lerr, checkpoint.ErrNoCheckpoint):
				// Nothing durable yet; fall through to in-memory state.
			default:
				return result, lerr
			}
		}
		tr, optimizers, err = s.buildTrainer(restored, features, targets, newOpt, restoredOptState)
		if err != nil {
			return result, err
		}
		// The weights may have rolled back to an older checkpoint and the
		// cluster was rebuilt over survivors: anything derived from the
		// pre-crash model (served embedding caches above all) is stale.
		s.fireEpochEnd(resumeEpoch-1, tr.Models[0])
		epoch, retries = resumeEpoch, 0
		ev := RecoveryEvent{
			FailedEpoch:  failedEpoch,
			Down:         down,
			Survivors:    s.AliveDevices(),
			ResumedEpoch: resumeEpoch,
			Generation:   gen,
		}
		result.Recoveries = append(result.Recoveries, ev)
		if opts.OnRecovery != nil {
			opts.OnRecovery(ev)
		}
	}
	result.Model = tr.Models[0].Clone()
	return result, nil
}

// buildTrainer shards model/features/targets over the active cluster and
// builds one optimizer per replica, restoring serialized optimizer state
// into each (the state bytes are replica-independent; binding happens
// against each replica's parameters).
func (s *System) buildTrainer(model *Model, features, targets *Matrix, newOpt func() Optimizer, optState []byte) (*Trainer, []Optimizer, error) {
	tr, err := s.NewTrainer(model, features, targets)
	if err != nil {
		return nil, nil, err
	}
	optimizers := make([]Optimizer, s.rel.K)
	for d := range optimizers {
		o := newOpt()
		if len(optState) > 0 {
			so, ok := o.(gnn.StatefulOptimizer)
			if !ok {
				return nil, nil, fmt.Errorf("dgcl: optimizer %q cannot restore checkpointed state", o.Name())
			}
			if err := so.LoadState(bytes.NewReader(optState), tr.Models[d]); err != nil {
				return nil, nil, err
			}
		}
		optimizers[d] = o
	}
	return tr, optimizers, nil
}

// encodeOptimizerState serializes opt's state against m, or nil for
// stateless optimizers.
func (s *System) encodeOptimizerState(opt Optimizer, m *Model) []byte {
	so, ok := opt.(gnn.StatefulOptimizer)
	if !ok {
		return nil
	}
	var buf bytes.Buffer
	if err := so.SaveState(&buf, m); err != nil {
		return nil
	}
	return buf.Bytes()
}

// saveCheckpoint commits one generation capturing replica 0 (replicas are
// identical by construction).
func (s *System) saveCheckpoint(store *checkpoint.Store, tr *Trainer, opt Optimizer, epoch int) (int, error) {
	snap := &checkpoint.Snapshot{
		Epoch:    epoch,
		Seed:     s.opts.Seed,
		OptName:  opt.Name(),
		OptState: s.encodeOptimizerState(opt, tr.Models[0]),
		Model:    tr.Models[0],
	}
	return store.Save(snap)
}
