// Package runtime executes communication plans with real data movement: one
// goroutine per DGCL client (GPU), coordinated the way §6.1 describes —
// decentralized, with per-peer buffers and done signals instead of a master
// round-trip per stage. Each client runs its compiled program stage by
// stage: its sends, then its receives. The forward graphAllgather delivers
// remote vertex embeddings to every client (including multi-hop relays); the
// backward allgather runs the same compiled program reversed, routing
// gradients down the same trees the other way and accumulating at relays.
// Transfers wider than ChunkRows rows travel as consecutive row chunks. All
// data movement goes through the Transport interface (transport.go): the
// default in-memory channel transport or a provider's (the wire transport),
// optionally wrapped with fault injection and retry decorators. The stage
// loop itself checks endpoints against the health tracker's down set, reports
// a receive the collective's deadline ended, and counts transfers into
// CommStats. The runtime is the correctness half of the reproduction; timing
// comes from package simnet.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/tensor"
)

// Cluster binds a communication relation, its per-GPU local graphs, and a
// staged plan into an executable ensemble.
type Cluster struct {
	K      int
	Rel    *comm.Relation
	Locals []*comm.LocalGraph
	Plan   *core.Plan
	// Stats, when non-nil, accumulates actual per-GPU transfer counters
	// (counted by every client's stage loop, so forward and backward
	// collectives over any transport both count).
	Stats *CommStats
	// Provider, when non-nil, supplies the base transport (default:
	// in-memory channels). Providers keep long-lived state across
	// collectives (pooled sockets) and route by external device id, so they
	// survive Degrade rebuilds.
	Provider TransportProvider
	// Ranks, when non-nil, restricts execution to those client indices: in a
	// multi-process run each process hosts a subset of the clients and the
	// wire transport carries the cross-process transfers. Nil means all K
	// clients run locally.
	Ranks []int
	// Faults, when non-nil, wraps the base transport with seeded fault
	// injection. Pair it with Retry so injected failures are retried.
	Faults *FaultConfig
	// Retry, when non-nil, wraps the transport with the retry decorator:
	// dropped and corrupted messages are retransmitted, and a send that
	// exhausts the budget surfaces as a structured per-GPU error.
	Retry *RetryPolicy
	// Timeout, when positive, bounds each collective end to end (applied as
	// a context deadline when the caller's context has none); that deadline
	// is the one bound on a receive.
	Timeout time.Duration
	// Health, when non-nil, holds the down set: its crash schedule fires as
	// the stage loop reaches each scheduled stage, and it grades every
	// collective, converting repeated deadline failures or explicit down
	// evidence into verdicts (surfaced via CollectiveError.Down). The stage
	// loop fails transfers touching a down device fast with ErrDeviceDown,
	// and the collective aborts instead of running out its deadline.
	Health *HealthTracker
	// DeviceIDs maps client index -> external device id. Nil means the
	// identity mapping; a degraded cluster rebuilt over survivors sets it so
	// crash schedules and down verdicts keep using the original numbering.
	DeviceIDs []int

	// Compiled routing programs (program.go), built lazily on first use and
	// reused by every subsequent collective, each with the channels and
	// relay arenas its collectives run in.
	progMu  sync.Mutex
	fwdProg *routingProgram
	bwdProg *routingProgram
}

// ActiveRanks returns the client indices this cluster executes locally: all
// K unless a worker-mode subset is installed via Ranks. Callers must not
// mutate the result.
func (c *Cluster) ActiveRanks() []int {
	if c.Ranks != nil {
		return c.Ranks
	}
	all := make([]int, c.K)
	for d := range all {
		all[d] = d
	}
	return all
}

// eachActive runs fn for every locally-executed client index.
func (c *Cluster) eachActive(fn func(d int)) {
	if c.Ranks == nil {
		for d := 0; d < c.K; d++ {
			fn(d)
		}
		return
	}
	for _, d := range c.Ranks {
		fn(d)
	}
}

// onEachRank runs fn for every locally-executed client, one goroutine per
// rank, and returns when all have finished. Clients block on one another
// inside a collective, so each needs a goroutine of its own: a bounded
// worker pool could park a receiver whose sender never gets to run.
func (c *Cluster) onEachRank(fn func(d int)) {
	var wg sync.WaitGroup
	c.eachActive(func(d int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(d)
		}()
	})
	wg.Wait()
}

// NewCluster validates the plan against the relation and builds the cluster.
func NewCluster(rel *comm.Relation, locals []*comm.LocalGraph, plan *core.Plan) (*Cluster, error) {
	if len(locals) != rel.K {
		return nil, fmt.Errorf("runtime: %d local graphs for %d GPUs", len(locals), rel.K)
	}
	if err := plan.Validate(rel); err != nil {
		return nil, fmt.Errorf("runtime: invalid plan: %w", err)
	}
	return &Cluster{K: rel.K, Rel: rel, Locals: locals, Plan: plan}, nil
}

// newTransport composes the transport stack for one collective over its
// base (channels or a provider's): base -> fault injection -> retry.
func (c *Cluster) newTransport(base Transport) Transport {
	t := base
	if c.Faults != nil {
		t = NewFaultTransport(t, *c.Faults)
	}
	if c.Retry != nil {
		t = NewRetryTransport(t, *c.Retry, c.Stats)
	}
	return t
}

// collectiveContext applies the cluster timeout when the caller's context
// carries no deadline of its own.
func (c *Cluster) collectiveContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, c.Timeout)
		}
	}
	return context.WithCancel(ctx)
}

// CollectiveError reports a failed collective with the structured per-GPU
// failures: PerGPU[d] is the error GPU d's client returned (nil for clients
// that finished cleanly). Down lists the devices (external ids, ascending)
// judged fail-stop dead by the time the collective finished — the signal
// that separates "lossy link, retry the epoch" from "peer is gone, degrade
// and recover."
type CollectiveError struct {
	Op     string
	PerGPU []error
	Down   []int
}

func (e *CollectiveError) Error() string {
	n, first := 0, error(nil)
	for _, err := range e.PerGPU {
		if err != nil {
			n++
			if first == nil {
				first = err
			}
		}
	}
	msg := fmt.Sprintf("runtime: %s failed on %d/%d GPUs: %v", e.Op, n, len(e.PerGPU), first)
	if len(e.Down) > 0 {
		msg += fmt.Sprintf(" (devices down: %v)", e.Down)
	}
	return msg
}

// Unwrap exposes the per-GPU errors to errors.Is/As.
func (e *CollectiveError) Unwrap() []error {
	out := make([]error, 0, len(e.PerGPU))
	for _, err := range e.PerGPU {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// collectClientErrors folds per-client errors into one *CollectiveError
// (or nil when every client succeeded), attaching any down verdicts. The
// error is built complete here rather than patched by the caller, so no
// layer ever needs to type-assert its way back into the concrete type.
func collectClientErrors(op string, errs []error, down ...int) error {
	for _, err := range errs {
		if err != nil {
			ce := &CollectiveError{Op: op, PerGPU: errs}
			if len(down) > 0 {
				ce.Down = down
			}
			return ce
		}
	}
	return nil
}

// finishCollective grades the collective with the health tracker (when one
// is installed) and attaches the down verdicts to the structured error.
func (c *Cluster) finishCollective(op string, errs []error) error {
	var down []int
	if c.Health != nil {
		down = c.Health.ObserveCollective(errs, c.DeviceIDs)
	}
	return collectClientErrors(op, errs, down...)
}

// abortOnDeviceDown cancels the collective the moment any client reports a
// dead device: clients that never touch the dead device would otherwise
// block on peers that already gave up, turning one fail-stop death into a
// full deadline stall. Ordinary transport failures do NOT abort the
// collective — the structured per-GPU error semantics of the fault battery
// depend on every client running to its own conclusion.
func abortOnDeviceDown(err error, cancel context.CancelFunc) {
	if err != nil && errors.Is(err, ErrDeviceDown) {
		cancel()
	}
}

// Allgather performs the forward graphAllgather: local[d] holds GPU d's
// owned embedding rows (in Rel.Local[d] order, cols = feature dim); the
// result full[d] has Locals[d].NumLocal+NumRemote rows in local-graph order,
// ready for single-GPU layer execution. It runs all clients concurrently.
func (c *Cluster) Allgather(local []*tensor.Matrix) ([]*tensor.Matrix, error) {
	return c.AllgatherContext(context.Background(), local)
}

// AllgatherContext is Allgather bounded by a context: cancellation or a
// deadline aborts all clients with a structured error.
func (c *Cluster) AllgatherContext(ctx context.Context, local []*tensor.Matrix) ([]*tensor.Matrix, error) {
	return c.collective(ctx, local, nil, false)
}

// collective runs one allgather in either direction: every locally-executed
// client runs its compiled program for that direction on its own goroutine
// over one transport stack, and the collective fails as a whole with the
// structured per-GPU errors. A dead device anywhere aborts the rest.
//
// dst holds the result matrices: dst[d] is written in place when it has
// client d's result shape and replaced by a new matrix otherwise, and dst
// itself is returned (a failed collective returns nil and leaves partial
// results in dst's matrices). A nil dst means a fresh slice of fresh
// matrices, the public Allgather's contract. No destination is zeroed first: every row of a
// result is written, owned rows by the up-front copy and every other row by
// exactly one receive (the plan delivers every remote vertex).
func (c *Cluster) collective(ctx context.Context, in, dst []*tensor.Matrix, backward bool) ([]*tensor.Matrix, error) {
	cols, err := c.validateInputs(in, backward)
	if err != nil {
		return nil, err
	}
	prog, err := c.program(backward)
	if err != nil {
		return nil, err
	}
	ctx, cancel := c.collectiveContext(ctx)
	defer cancel()
	tx, st, release := c.acquireStack(prog)
	op, run := "graphAllgather", c.runForwardClient
	if backward {
		op, run = "backward graphAllgather", c.runBackwardClient
	}
	if dst == nil {
		dst = make([]*tensor.Matrix, c.K)
	}
	c.eachActive(func(d int) {
		st.bind(d, cols, prog.clients[d].arenaRows)
		lg := c.Locals[d]
		rows := lg.NumLocal
		if !backward {
			rows += lg.NumRemote
		}
		dst[d] = tensor.Reuse(dst[d], rows, cols)
	})
	errs := make([]error, c.K)
	c.onEachRank(func(d int) {
		errs[d] = run(ctx, d, in[d], dst[d], tx, &prog.clients[d], &st.slots[d])
		abortOnDeviceDown(errs[d], cancel)
	})
	// Every reader is done: drop the state's hold on this collective's
	// outputs, which are the caller's now.
	clear(st.slots)
	release(anyError(errs))
	if err := c.finishCollective(op, errs); err != nil {
		return nil, err
	}
	return dst, nil
}

func anyError(errs []error) bool {
	for _, err := range errs {
		if err != nil {
			return true
		}
	}
	return false
}

// validateInputs checks one matrix per locally-executed GPU, all non-nil
// with a consistent column count and one row per owned vertex (forward) or
// per local-graph vertex (backward). In worker mode the entries of inactive
// ranks are ignored (they may be nil — those clients run in another
// process).
func (c *Cluster) validateInputs(in []*tensor.Matrix, backward bool) (int, error) {
	if len(in) != c.K {
		return 0, fmt.Errorf("runtime: %d inputs for %d GPUs", len(in), c.K)
	}
	cols := -1
	var verr error
	c.eachActive(func(d int) {
		if verr != nil {
			return
		}
		m := in[d]
		if m == nil {
			verr = fmt.Errorf("runtime: GPU %d input is nil", d)
			return
		}
		if lg := c.Locals[d]; backward && m.Rows != lg.NumLocal+lg.NumRemote {
			verr = fmt.Errorf("runtime: GPU %d gradient has %d rows, local graph has %d", d, m.Rows, lg.NumLocal+lg.NumRemote)
			return
		}
		if !backward && m.Rows != len(c.Rel.Local[d]) {
			verr = fmt.Errorf("runtime: GPU %d input has %d rows, owns %d vertices", d, m.Rows, len(c.Rel.Local[d]))
			return
		}
		if cols == -1 {
			cols = m.Cols
		} else if m.Cols != cols {
			verr = fmt.Errorf("runtime: inconsistent feature dims (%d vs %d)", m.Cols, cols)
		}
	})
	if verr != nil {
		return 0, verr
	}
	return cols, nil
}

// runForwardClient executes one client's compiled forward program into full
// (NumLocal+NumRemote rows). full doubles as the vertex store: owned rows are
// block-copied up front, received rows land directly at their precomputed
// local-graph offset, and relay-only rows live in the program's arena.
func (c *Cluster) runForwardClient(ctx context.Context, d int, local, full *tensor.Matrix, tx stack, cp *clientProgram, sr *slotRows) error {
	copy(full.Data[:c.Locals[d].NumLocal*sr.cols], local.Data)
	sr.own = full.Data
	return c.runClient(ctx, d, tx, cp, sr, false)
}

// slotRows is one client's slot storage for one collective, under
// program.go's slot encoding: slot s >= 0 is row s of own, s < 0 is row
// -s-1 of arena. An in-place message points at its sender's.
type slotRows struct {
	own, arena []float32
	cols       int
}

// row returns the storage of slot s.
func (sr *slotRows) row(s int32) []float32 {
	c := sr.cols
	if s >= 0 {
		o := int(s) * c
		return sr.own[o : o+c]
	}
	o := int(-s-1) * c
	return sr.arena[o : o+c]
}

// gather copies the rows of slots into a fresh matrix: the materialised
// form of an in-place message.
func (sr *slotRows) gather(slots []int32) *tensor.Matrix {
	m := tensor.New(len(slots), sr.cols)
	for i, s := range slots {
		copy(m.Data[i*sr.cols:], sr.row(s))
	}
	return m
}

// land copies (forward) or adds (backward) payload row i into slots[i],
// reading an in-place message straight from its sender's storage. Backward
// adds each destination row's floats in row-local order.
func (sr *slotRows) land(slots []int32, msg Message, add bool) {
	for i, s := range slots {
		src := msg.Row(i)
		if add {
			tensor.AddTo(sr.row(s), src)
		} else {
			copy(sr.row(s), src)
		}
	}
}

// runClient runs one client's compiled program over its slot storage,
// landing each received payload (adding it when add is set, copying it
// otherwise), strictly in order: each stage's sends, then its receives.
// Sending first is safe in both directions — a stage's sends only carry
// rows settled in earlier stages, never data arriving in this stage's
// receives (forward: tree edges at depth k ship rows received at depth k-1;
// backward: the same edges reversed) — and it is what keeps the stage
// deadlock-free. A send hands over the sender's rows in place when the
// stack allows it (program.go says why no row changes until its readers are
// done), and a materialised copy otherwise; so the channel path moves each
// row once, from the sender's storage into the receiver's.
//
// The loop also applies the per-transfer policies. With a health tracker
// installed it advances the crash schedule once per stage in which the
// client has a transfer, fails any send or receive touching a down device
// with its *DeviceDownError, and names the dead device after any failed
// transfer whose endpoint died meanwhile (a receiver blocked on a dead sender
// is unblocked by abortOnDeviceDown, since that sender's own client fails). A
// receive the collective's context ended otherwise becomes a recv
// *TransportError naming its sender, the health tracker's strike. With Stats
// installed it counts each successful transfer and each receive the deadline
// (not a cancel) ended, and adds the tally in when the program ends.
func (c *Cluster) runClient(ctx context.Context, d int, tx stack, cp *clientProgram, sr *slotRows, add bool) error {
	var n clientCounts
	if c.Stats != nil {
		defer c.Stats.add(d, &n)
	}
	rowBytes := int64(sr.cols * 4)
	for si, cs := range cp.stages {
		if c.Health != nil && len(cs.sends)+len(cs.recvs) > 0 {
			c.Health.advance(si)
		}
		// Send phase: hand over the rows and set done flags.
		for _, snd := range cs.sends {
			if err := c.deviceDown(snd.tr); err != nil {
				return fmt.Errorf("runtime: GPU %d send: %w", d, err)
			}
			msg := Message{from: sr, slots: snd.slots}
			if !tx.inPlace {
				msg = Message{Rows: sr.gather(snd.slots)}
			}
			if err := tx.tp.Send(ctx, snd.key, snd.tr, msg); err != nil {
				return fmt.Errorf("runtime: GPU %d send: %w", d, c.blame(snd.tr, err))
			}
			n.sentBytes += int64(len(snd.slots)) * rowBytes
			n.sentMsgs++
			n.relayedBytes += int64(snd.relayRows) * rowBytes
		}
		// Receive phase: wait for each peer's done flag and retrieve.
		for _, rcv := range cs.recvs {
			if err := c.deviceDown(rcv.tr); err != nil {
				return fmt.Errorf("runtime: GPU %d recv: %w", d, err)
			}
			msg, err := tx.tp.Recv(ctx, rcv.key, rcv.tr)
			if err != nil {
				err = c.blame(rcv.tr, err)
				if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
					if errors.Is(err, context.DeadlineExceeded) {
						n.timeouts++
					}
					err = &TransportError{Op: "recv", Key: rcv.key, Src: rcv.tr.Src, Dst: rcv.tr.Dst, Attempts: 1, Err: err}
				}
				return fmt.Errorf("runtime: GPU %d recv: %w", d, err)
			}
			n.recvBytes += int64(len(rcv.slots)) * rowBytes
			n.recvMsgs++
			sr.land(rcv.slots, msg, add)
			if tx.pooled != nil {
				tx.pooled.RecycleMessage(msg)
			}
		}
	}
	return nil
}

// deviceDown returns the *DeviceDownError of the first endpoint of tr (in
// external ids) the health tracker has down, or nil.
func (c *Cluster) deviceDown(tr core.Transfer) error {
	if c.Health == nil {
		return nil
	}
	return c.Health.downEndpoint(c.deviceID(tr.Src), c.deviceID(tr.Dst))
}

// blame replaces a failed transfer's error with the *DeviceDownError of an
// endpoint that died while it was in flight.
func (c *Cluster) blame(tr core.Transfer, err error) error {
	if derr := c.deviceDown(tr); derr != nil {
		return derr
	}
	return err
}

// deviceID maps a client index to its external device id.
func (c *Cluster) deviceID(i int) int {
	if c.DeviceIDs == nil {
		return i
	}
	return c.DeviceIDs[i]
}

// BackwardAllgather routes gradients back along the plan's trees: gradFull[d]
// has one row per local-graph vertex of GPU d (locals then remotes, the
// shape layers' Backward produces). The result grad[d] has one row per owned
// vertex of GPU d: its own local-row gradients plus every gradient
// contribution received from GPUs that consumed (or relayed) its vertices.
func (c *Cluster) BackwardAllgather(gradFull []*tensor.Matrix) ([]*tensor.Matrix, error) {
	return c.BackwardAllgatherContext(context.Background(), gradFull)
}

// BackwardAllgatherContext is BackwardAllgather bounded by a context.
func (c *Cluster) BackwardAllgatherContext(ctx context.Context, gradFull []*tensor.Matrix) ([]*tensor.Matrix, error) {
	return c.collective(ctx, gradFull, nil, true)
}

// runBackwardClient executes one client's compiled backward program into
// own (NumLocal rows), the owned-gradient accumulator, which starts from the
// local rows of gradFull; the program's arena holds the running gradient for
// every non-owned vertex this client touches — rows [0, NumRemote) start as
// the remote rows of gradFull (this client's own consumer contribution),
// relay-only rows start at zero (zeroed explicitly: the arena still holds
// the last collective's sums). Receives accumulate row i of the payload into
// its precomputed slot in the exact legacy iteration order, so results are
// bit-identical to the map-based path.
func (c *Cluster) runBackwardClient(ctx context.Context, d int, gradFull, own *tensor.Matrix, tx stack, cp *clientProgram, sr *slotRows) error {
	lg := c.Locals[d]
	cols := sr.cols
	copy(own.Data, gradFull.Data[:lg.NumLocal*cols])
	sr.own = own.Data
	copy(sr.arena[:lg.NumRemote*cols], gradFull.Data[lg.NumLocal*cols:])
	clear(sr.arena[cp.zeroFrom*cols:])
	return c.runClient(ctx, d, tx, cp, sr, true)
}
