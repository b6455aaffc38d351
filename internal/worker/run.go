package worker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dgcl"
	"dgcl/internal/checkpoint"
	"dgcl/internal/clock"
	"dgcl/internal/comm/wire"
	"dgcl/internal/gnn"
	"dgcl/internal/runtime"
)

// ErrDrained reports that the worker exited on request (SIGTERM/SIGINT →
// WorkerOptions.Drain): it finished its in-flight epoch, flushed a
// checkpoint, and told the coordinator it was leaving. A drained exit is
// deliberate, not a failure.
var ErrDrained = errors.New("worker: drained")

// errFaulted marks a collective failure the worker already reported to the
// coordinator; the control loop waits for the next generation's prepare.
var errFaulted = errors.New("worker: faulted, awaiting next generation")

// WorkerOptions configures one worker process's run. The zero value of every
// optional field selects a default.
type WorkerOptions struct {
	// Coordinator is the coordinator's control address (required).
	Coordinator string
	// DataBind is the advertised peer address for the per-generation data
	// listener ("127.0.0.1:0" when empty; a routable host:port on real
	// clusters).
	DataBind string
	// StateDir, when set, roots this worker's durable state: a membership
	// file identifying the run it last prepared for, and a per-run
	// checkpoint store catch-up resumes from. Empty disables both (the
	// worker can still fault and rerun, but never rejoin after a restart).
	StateDir string
	// Rejoin makes the worker present the persisted run identity from
	// StateDir and reclaim its dead slot instead of joining fresh.
	Rejoin bool
	// Backoff shapes the coordinator dial retry schedule.
	Backoff BackoffConfig
	// Clock injects time for backoff sleeps and heartbeat pacing. Default:
	// the real clock.
	Clock clock.Clock
	// Drain, when non-nil, requests a graceful exit when it becomes
	// readable: polled at epoch boundaries (cmd/dgclworker closes it on
	// SIGTERM/SIGINT).
	Drain <-chan struct{}
}

// epochTimeout bounds each epoch's collectives so a stalled peer surfaces as
// a fault instead of a hang.
const epochTimeout = 2 * time.Minute

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.DataBind == "" {
		o.DataBind = "127.0.0.1:0"
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

// memberState is the durable identity a restarted worker presents to rejoin
// its run: written to StateDir/membership.json at the first healthy prepare.
type memberState struct {
	RunID string `json:"run_id"`
	Plan  uint64 `json:"plan"`
	Proto int    `json:"proto"`
}

func membershipPath(dir string) string { return filepath.Join(dir, "membership.json") }

func loadMemberState(dir string) (memberState, bool) {
	data, err := os.ReadFile(membershipPath(dir))
	if err != nil {
		return memberState{}, false
	}
	var st memberState
	if err := json.Unmarshal(data, &st); err != nil || st.RunID == "" {
		return memberState{}, false
	}
	return st, true
}

// saveMemberState commits the membership file atomically (temp + rename) so
// a crash mid-write never leaves a half-written identity.
func saveMemberState(dir string, st memberState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("worker: state dir: %w", err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("worker: encode membership: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "membership-*.tmp")
	if err != nil {
		return fmt.Errorf("worker: membership temp: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil { //dgclvet:ignore ctxbound local temp-file write; there is no peer to wait on
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("worker: write membership: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("worker: close membership: %w", err)
	}
	if err := os.Rename(name, membershipPath(dir)); err != nil {
		os.Remove(name)
		return fmt.Errorf("worker: commit membership: %w", err)
	}
	return nil
}

// runStateDir names the per-run checkpoint directory under StateDir, so
// checkpoints from an earlier run with the same spec can never poison a
// rejoin.
func runStateDir(stateDir, runID string) string {
	safe := make([]rune, 0, len(runID))
	for _, r := range runID {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			safe = append(safe, r)
		default:
			safe = append(safe, '_')
		}
	}
	return filepath.Join(stateDir, string(safe))
}

// session is one membership generation's training state: the system built
// (and possibly degraded) from the generation's prepare, the fresh data
// listener, and the per-run checkpoint store.
type session struct {
	gen     uint64
	runID   string
	spec    Spec
	you     int
	compact []int // this process's ranks in post-degrade compact numbering
	alive   []int // compact rank -> external device id

	sys      *dgcl.System
	model    *dgcl.Model
	features *dgcl.Matrix
	targets  *dgcl.Matrix
	planSum  uint64
	beat     time.Duration

	ln    net.Listener
	node  *wire.Node
	store *checkpoint.Store
}

func (s *session) close() {
	if s.node != nil {
		s.node.Close()
		s.node = nil
	} else if s.ln != nil {
		// Connect never ran; the listener is still ours to close.
		s.ln.Close()
	}
	s.ln = nil
}

// Run executes the supervised worker protocol against the coordinator:
// dial (with backoff), join (fresh or rejoining), then serve generations —
// prepare builds the system and a fresh data listener, ready advertises them
// with the intact checkpoint epochs, mesh triggers catch-up and training
// under heartbeats — until the coordinator's bye carries the verified run
// report.
func Run(ctx context.Context, opts WorkerOptions) (*Report, error) {
	opts = opts.withDefaults()
	var persisted memberState
	rejoining := false
	if opts.Rejoin {
		if opts.StateDir == "" {
			return nil, errors.New("worker: rejoin requires a state dir")
		}
		persisted, rejoining = loadMemberState(opts.StateDir)
		if !rejoining {
			return nil, fmt.Errorf("worker: rejoin requested but %s holds no run identity", membershipPath(opts.StateDir))
		}
	}
	conn, err := dialBackoff(ctx, opts.Clock, opts.Coordinator, opts.Backoff)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	cc := &ctrlConn{conn: conn}
	join := ctrlMsg{T: mtJoin, Proto: ProtoVersion}
	if rejoining {
		join.Rejoin, join.RunID, join.Plan = true, persisted.RunID, persisted.Plan
	}
	if err := cc.send(join); err != nil {
		return nil, err
	}

	var sess *session
	defer func() {
		if sess != nil {
			sess.close()
		}
	}()
	for {
		msg, err := readCtrl(conn, resultTimeout)
		if err != nil {
			return nil, fmt.Errorf("worker: coordinator connection: %w", err)
		}
		switch msg.T {
		case mtReject:
			return nil, &ProtocolError{Code: msg.Code, Detail: msg.Err}
		case mtPrepare:
			if sess != nil {
				sess.close()
				sess = nil
			}
			s, err := prepare(msg, opts)
			if err != nil {
				// A local build failure is unrecoverable and identical on
				// every process; report it so the run fails with a cause.
				_ = cc.send(ctrlMsg{T: mtResult, Gen: msg.Gen, Err: err.Error()}) //dgclvet:ignore errwrap failure report is best-effort; the build error below is the cause
				return nil, err
			}
			sess = s
			if opts.StateDir != "" && len(msg.Down) == 0 {
				if err := saveMemberState(opts.StateDir, memberState{RunID: s.runID, Plan: s.planSum, Proto: ProtoVersion}); err != nil {
					_ = cc.send(ctrlMsg{T: mtResult, Gen: msg.Gen, Err: err.Error()}) //dgclvet:ignore errwrap failure report is best-effort; the state error below is the cause
					return nil, err
				}
			}
			ready := ctrlMsg{T: mtReady, Gen: s.gen, Addr: s.ln.Addr().String(), Plan: s.planSum}
			if s.store != nil {
				if ready.Ckpts, err = s.store.Epochs(); err != nil {
					_ = cc.send(ctrlMsg{T: mtResult, Gen: msg.Gen, Err: err.Error()}) //dgclvet:ignore errwrap failure report is best-effort; the store error below is the cause
					return nil, err
				}
			}
			if err := cc.send(ready); err != nil {
				return nil, err
			}
		case mtMesh:
			if sess == nil || msg.Gen != sess.gen {
				return nil, fmt.Errorf("worker: mesh for generation %d without a prepared session", msg.Gen)
			}
			err := sess.train(ctx, cc, msg, opts)
			switch {
			case err == nil:
				// Result sent; the mesh stays up until the coordinator's
				// bye so slower peers can drain their last frames.
			case errors.Is(err, ErrDrained):
				return nil, ErrDrained
			case errors.Is(err, errFaulted):
				sess.close()
				sess = nil
			default:
				return nil, err
			}
		case mtBye:
			if !msg.OK {
				return nil, fmt.Errorf("worker: run failed: %s", msg.Err)
			}
			if len(msg.Losses) == 0 {
				return nil, errors.New("worker: bye carries no report")
			}
			return &Report{Losses: msg.Losses, ModelSum: msg.Sum}, nil
		}
	}
}

// prepare builds one generation's session from its prepare message: the
// deterministic system (degraded onto the survivors when the membership
// shrank), this process's compact ranks, a fresh data listener, and the
// per-run checkpoint store.
func prepare(msg ctrlMsg, opts WorkerOptions) (*session, error) {
	if msg.Spec == nil {
		return nil, errors.New("worker: prepare carries no spec")
	}
	spec := msg.Spec.withDefaults()
	sys, model, features, targets, err := Build(spec)
	if err != nil {
		return nil, err
	}
	if len(msg.Down) > 0 {
		if err := sys.Degrade(msg.Down); err != nil {
			return nil, err
		}
	}
	alive := sys.AliveDevices()
	compactOf := make(map[int]int, len(alive))
	for i, id := range alive {
		compactOf[id] = i
	}
	compact := make([]int, 0, len(msg.Ranks))
	for _, r := range msg.Ranks {
		c, ok := compactOf[r]
		if !ok {
			return nil, fmt.Errorf("worker: assigned rank %d is not alive after degrading %v", r, msg.Down)
		}
		compact = append(compact, c)
	}
	ln, err := net.Listen("tcp", opts.DataBind)
	if err != nil {
		return nil, fmt.Errorf("worker: data listener: %w", err)
	}
	s := &session{
		gen:      msg.Gen,
		runID:    msg.RunID,
		spec:     spec,
		you:      msg.You,
		compact:  compact,
		alive:    alive,
		sys:      sys,
		model:    model,
		features: features,
		targets:  targets,
		planSum:  wire.DigestWithChunking(wire.PlanDigest(sys.Plan()), runtime.ChunkRows),
		beat:     time.Duration(msg.Beat),
		ln:       ln,
	}
	if s.beat <= 0 {
		s.beat = 500 * time.Millisecond
	}
	if opts.StateDir != "" {
		s.store = checkpoint.NewStore(runStateDir(opts.StateDir, msg.RunID))
	}
	return s, nil
}

// optimizerName is the optimizer identity stamped into (and validated
// against) checkpoints; the epoch loop's stateless SGD step must match it.
func optimizerName(spec Spec) string {
	return gnn.NewSGD(float32(spec.LR), 0).Name()
}

// train runs one generation: catch up from the negotiated common checkpoint
// epoch, mesh with the generation's peers (the cluster ID carries the
// generation, so a stale worker's data connections are fenced at the
// handshake), then train under heartbeats, reporting progress each epoch. On
// a collective fault it tells the coordinator whom it blames, tears its mesh
// down (unblocking peers), and returns errFaulted.
func (s *session) train(ctx context.Context, cc *ctrlConn, mesh ctrlMsg, opts WorkerOptions) error {
	if s.you < 0 || s.you >= len(mesh.Nodes) {
		return fmt.Errorf("worker: node id %d outside %d-entry table", s.you, len(mesh.Nodes))
	}
	start := mesh.Start
	model := s.model
	if start > 0 {
		if s.store == nil {
			return fmt.Errorf("worker: coordinator resumes at epoch %d but this worker has no state dir", start)
		}
		snap, _, err := s.store.LoadEpoch(start)
		if err != nil {
			return fmt.Errorf("worker: catch-up epoch %d: %w", start, err)
		}
		if snap.Seed != s.spec.Seed {
			return fmt.Errorf("worker: checkpoint seed %d != run seed %d; resuming would break determinism", snap.Seed, s.spec.Seed)
		}
		if want := optimizerName(s.spec); snap.OptName != want {
			return fmt.Errorf("worker: checkpoint optimizer %q != configured %q", snap.OptName, want)
		}
		model = snap.Model
	}
	if start >= s.spec.Epochs {
		return fmt.Errorf("worker: resume epoch %d is beyond the run's %d epochs", start, s.spec.Epochs)
	}

	node := wire.NewNode(wire.Config{
		ClusterID: fmt.Sprintf("%s#g%d", s.runID, s.gen),
		PlanSum:   s.planSum,
	}, s.you, s.ln)
	s.node = node
	if err := node.Connect(ctx, mesh.Nodes); err != nil {
		return s.fault(cc, start, err)
	}
	node.SetDeviceIDs(s.alive)
	if err := s.sys.SetRunOptions(dgcl.RunOptions{Transport: node}); err != nil {
		return err
	}
	if err := s.sys.SetWorkerMode(s.compact, node); err != nil {
		return err
	}
	tr, err := s.sys.NewTrainer(model, s.features, s.targets)
	if err != nil {
		return err
	}

	// Heartbeats: proof of life on the injected clock's cadence for as long
	// as an epoch is in flight. Send errors are left to the control loop's
	// reads to surface.
	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		for {
			ch, cancel := opts.Clock.After(s.beat)
			select {
			case <-stop:
				cancel()
				return
			case <-ch:
			}
			if err := cc.send(ctrlMsg{T: mtBeat, Gen: s.gen}); err != nil {
				return
			}
		}
	}()
	stopBeats := func() {
		close(stop)
		hb.Wait()
	}

	for e := start; e < s.spec.Epochs; e++ {
		if drained(opts.Drain) {
			stopBeats()
			return s.drain(cc, tr, e)
		}
		epochCtx, cancel := context.WithTimeout(ctx, epochTimeout)
		loss, err := tr.EpochAt(epochCtx, e)
		cancel()
		if err != nil {
			stopBeats()
			if ctx.Err() != nil {
				return fmt.Errorf("worker: epoch %d: %w", e, err)
			}
			return s.fault(cc, e, err)
		}
		tr.Step(float32(s.spec.LR))
		if err := cc.send(ctrlMsg{T: mtBeat, Gen: s.gen, Epoch: e + 1, Progress: true, Loss: loss}); err != nil {
			stopBeats()
			return err
		}
		if s.store != nil {
			if err := s.checkpoint(tr, e+1); err != nil {
				stopBeats()
				return err
			}
		}
	}
	stopBeats()
	if drained(opts.Drain) {
		return s.drain(cc, tr, s.spec.Epochs)
	}
	return cc.send(ctrlMsg{T: mtResult, Gen: s.gen, Epoch: s.spec.Epochs, Sum: ModelDigest(tr.Models[0])})
}

func drained(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// drain performs the graceful exit: flush a checkpoint at the completed
// epoch (even off-cadence), tell the coordinator, tear the mesh down.
func (s *session) drain(cc *ctrlConn, tr *dgcl.Trainer, epoch int) error {
	if s.store != nil && epoch > 0 {
		if err := s.checkpoint(tr, epoch); err != nil {
			return err
		}
	}
	_ = cc.send(ctrlMsg{T: mtLeave, Gen: s.gen, Epoch: epoch}) //dgclvet:ignore errwrap leave notice is best-effort; the worker is exiting either way
	return ErrDrained
}

// checkpoint commits the replica-0 state at a completed epoch boundary.
func (s *session) checkpoint(tr *dgcl.Trainer, epoch int) error {
	_, err := s.store.Save(&checkpoint.Snapshot{
		Epoch:   epoch,
		Seed:    s.spec.Seed,
		OptName: optimizerName(s.spec),
		Model:   tr.Models[0],
	})
	if err != nil {
		return fmt.Errorf("worker: checkpoint epoch %d: %w", epoch, err)
	}
	return nil
}

// fault reports a collective failure (with whoever the error evidence
// blames) and tears this node's mesh down so peers blocked mid-collective
// observe the link loss and fault too, instead of deadlocking at the
// barrier.
func (s *session) fault(cc *ctrlConn, epoch int, cause error) error {
	msg := ctrlMsg{T: mtFault, Gen: s.gen, Epoch: epoch, Blame: runtime.DownDevices(cause)}
	_ = cc.send(msg) //dgclvet:ignore errwrap fault report is best-effort; a dead control link surfaces in the control loop's next read
	s.close()
	return fmt.Errorf("%w: epoch %d: %v", errFaulted, epoch, cause)
}
