package runtime

import (
	"context"
	"fmt"
	"sync"

	"dgcl/internal/core"
	"dgcl/internal/tensor"
)

// Overlapped epoch execution (DESIGN.md §16). The serial client loop runs
// each stage's sends, then its receives, then moves on — so a client's
// outbound I/O and its aggregation never overlap, and epoch time is the sum
// of the two. The overlapped executor splits every client into a sender
// goroutine and an aggregator (the client's own goroutine), connected by a
// pipeState: the sender runs ahead issuing stage s+1's sends while the
// aggregator is still landing stage s's receives, bounded by the in-flight
// window and by the compiled slot-hazard dependencies (sendDep/aggDep), so
// pooled-buffer ownership and row contents stay exactly as serial execution
// would leave them. Chunked transfers (chunkStages) make the pipeline
// fine-grained: a large transfer becomes consecutive sub-transfers within
// its stage, so the receiver starts aggregating rows as chunks land instead
// of waiting for the full matrix.
//
// Determinism argument: the aggregator consumes recvSteps strictly in
// compiled order (one blocking Recv per key), and chunk splitting preserves
// the global row order of every transfer, so the slots of a collective are
// written in the same order with the same values as serially. Within one
// received payload each destination row's floats are combined in row-local
// order. Results are therefore bit-identical to serial execution at any
// chunk size.

// DefaultOverlapWindow is the in-flight stage window used when OverlapConfig
// enables the pipeline without choosing one: the sender may run at most this
// many stages ahead of the aggregator.
const DefaultOverlapWindow = 4

// OverlapConfig controls chunked, pipelined execution of the compiled
// routing programs. The zero value preserves the serial executor and the
// unchunked stage layout exactly.
type OverlapConfig struct {
	// Enabled runs every client as a sender/aggregator pipeline instead of
	// the strictly-in-order stage loop.
	Enabled bool
	// ChunkRows, when positive, splits transfers wider than this many rows
	// into consecutive sub-transfers at program-compile time. The chunked
	// layout changes the wire-visible transfer keys, so every process of a
	// multi-process run must agree on it (it is folded into the wire plan
	// digest); Enabled and Window are purely local execution policy.
	ChunkRows int
	// Window bounds how many stages the sender may run ahead of the
	// aggregator (<= 0 means DefaultOverlapWindow). Window 1 degenerates to
	// send-stage-then-aggregate-it lockstep.
	Window int
}

// chunkRows returns the effective compile-time chunking granularity; 0
// means no chunking.
func (o OverlapConfig) chunkRows() int {
	if o.ChunkRows > 0 {
		return o.ChunkRows
	}
	return 0
}

// window returns the effective in-flight stage window.
func (o OverlapConfig) window() int {
	if o.Window > 0 {
		return o.Window
	}
	return DefaultOverlapWindow
}

// chunkStages splits every transfer wider than chunkRows rows into
// consecutive sub-transfers sharing its stage. Byte totals, row order, and
// stage membership are preserved — only the transfer granularity changes —
// so stats, crash schedules (stage-keyed), and plan validation (which ran on
// the unchunked plan) are all unaffected. chunkRows <= 0 returns stages
// unchanged.
func chunkStages(stages [][]core.Transfer, chunkRows int) [][]core.Transfer {
	if chunkRows <= 0 {
		return stages
	}
	out := make([][]core.Transfer, len(stages))
	for si, st := range stages {
		cs := make([]core.Transfer, 0, len(st))
		for _, tr := range st {
			if len(tr.Vertices) <= chunkRows {
				cs = append(cs, tr)
				continue
			}
			for lo := 0; lo < len(tr.Vertices); lo += chunkRows {
				hi := lo + chunkRows
				if hi > len(tr.Vertices) {
					hi = len(tr.Vertices)
				}
				sub := tr
				sub.Vertices = tr.Vertices[lo:hi]
				cs = append(cs, sub)
			}
		}
		out[si] = cs
	}
	return out
}

// computeDeps derives the per-stage hazard gates that make pipelined
// execution equivalent to serial, by replaying the program's slot accesses
// in execution order. posRows is the size of the client's non-arena slot
// space (forward: the full matrix; backward: the owned accumulator).
//
//   - sendDep[s] = the last stage whose receives write a slot that stage
//     s's sends read (-1 if none): the sender may not start stage s until
//     the aggregator has finished that stage, or it would ship stale relay
//     rows.
//   - aggDep[s] = the last stage whose sends read a slot that stage s's
//     receives write (-1 if none): the aggregator may not land stage s
//     until the sender has issued that stage, or an accumulation would
//     clobber a row a pending send still has to read (the backward WAR
//     hazard).
//
// Serial execution trivially satisfies both. For any plan produced by the
// tree planners sendDep[s] < s (a relay can only forward rows that arrived
// in an earlier stage) and aggDep[s] <= s by construction, which makes every
// pipeline wait chain strictly decreasing — hence deadlock-free. A program
// violating sendDep[s] < s could not run even serially (its send would read
// data that hasn't arrived); serialOnly records it defensively and the
// executor falls back to the serial loop.
func (cp *clientProgram) computeDeps(posRows int) {
	total := posRows + cp.arenaRows
	writer := make([]int, total)
	lastRead := make([]int, total)
	for i := range writer {
		writer[i], lastRead[i] = -1, -1
	}
	idx := func(s int32) int {
		if s >= 0 {
			return int(s)
		}
		return posRows + int(-s-1)
	}
	cp.sendDep = make([]int, len(cp.stages))
	cp.aggDep = make([]int, len(cp.stages))
	for si := range cp.stages {
		cs := &cp.stages[si]
		dep := -1
		for _, snd := range cs.sends {
			for _, sl := range snd.slots {
				if w := writer[idx(sl)]; w > dep {
					dep = w
				}
			}
		}
		cp.sendDep[si] = dep
		if dep >= si {
			cp.serialOnly = true
		}
		for _, snd := range cs.sends {
			for _, sl := range snd.slots {
				lastRead[idx(sl)] = si
			}
		}
		dep = -1
		for _, rcv := range cs.recvs {
			for _, sl := range rcv.slots {
				if r := lastRead[idx(sl)]; r > dep {
					dep = r
				}
			}
		}
		cp.aggDep[si] = dep
		for _, rcv := range cs.recvs {
			for _, sl := range rcv.slots {
				writer[idx(sl)] = si
			}
		}
	}
}

// pipeState synchronizes one client's sender goroutine with its aggregator:
// two monotone stage counters under one mutex, a broadcast condition for the
// gates, and first-error capture. Either side failing aborts the other (the
// per-client context is cancelled by fail, unblocking a peer stuck in a
// transport call).
type pipeState struct {
	mu       sync.Mutex
	cond     sync.Cond
	sendDone int // stages whose sends have all been issued
	aggDone  int // stages whose receives have all been aggregated
	err      error
	aborted  bool
}

func newPipeState() *pipeState {
	ps := &pipeState{}
	ps.cond.L = &ps.mu
	return ps
}

// fail records the pipeline's first error, aborts both sides, and cancels
// the client context so blocked transport calls return.
func (ps *pipeState) fail(err error, cancel context.CancelFunc) {
	ps.mu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.aborted = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
	cancel()
}

// waitAgg blocks until at least n stages are aggregated; false means the
// pipeline aborted.
func (ps *pipeState) waitAgg(n int) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for ps.aggDone < n && !ps.aborted {
		ps.cond.Wait()
	}
	return !ps.aborted
}

// waitSend blocks until at least n stages are fully sent; false means the
// pipeline aborted.
func (ps *pipeState) waitSend(n int) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for ps.sendDone < n && !ps.aborted {
		ps.cond.Wait()
	}
	return !ps.aborted
}

func (ps *pipeState) advanceSend() {
	ps.mu.Lock()
	ps.sendDone++
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

func (ps *pipeState) advanceAgg() {
	ps.mu.Lock()
	ps.aggDone++
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

func (ps *pipeState) firstErr() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.err
}

// aggregateFunc lands one received payload at its compiled slots.
type aggregateFunc func(rowOf func(int32) []float32, slots []int32, rows *tensor.Matrix)

// aggregateCopy lands a received payload at its compiled slots (forward:
// pure row copies).
func aggregateCopy(rowOf func(int32) []float32, slots []int32, rows *tensor.Matrix) {
	for i, s := range slots {
		copy(rowOf(s), rows.Row(i))
	}
}

// aggregateAdd accumulates a received payload into its compiled slots
// (backward), each destination row's floats added in row-local order.
func aggregateAdd(rowOf func(int32) []float32, slots []int32, rows *tensor.Matrix) {
	for i, s := range slots {
		tensor.AddTo(rowOf(s), rows.Row(i))
	}
}

// runClientPipelined executes one client's program with sends decoupled from
// aggregation. The caller owns the slot storage and passes rowOf/agg; the
// pipeline owns nothing but pooled send buffers, whose ownership protocol is
// unchanged from serial execution: a buffer is filled, shipped, and either
// returned immediately (pooled transports) or returned by the receiving
// client through Cluster.recycle.
func (c *Cluster) runClientPipelined(ctx context.Context, d, cols int, tp Transport, cp *clientProgram, pooled PooledTransport, rowOf func(int32) []float32, agg aggregateFunc) error {
	window := c.Overlap.window()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ps := newPipeState()
	var sender sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		for s := range cp.stages {
			// Gate: the aggregator must have landed every stage whose
			// receives write rows these sends read, and may not fall more
			// than the window behind.
			need := cp.sendDep[s] + 1
			if w := s + 1 - window; w > need {
				need = w
			}
			if !ps.waitAgg(need) {
				return
			}
			for _, snd := range cp.stages[s].sends {
				buf := c.pool.get(len(snd.slots), cols)
				for i, sl := range snd.slots {
					copy(buf.Row(i), rowOf(sl))
				}
				if err := tp.Send(cctx, snd.key, snd.tr, c.seal(Message{Rows: buf})); err != nil {
					ps.fail(fmt.Errorf("runtime: GPU %d send: %w", d, err), cancel)
					return
				}
				if pooled != nil {
					c.pool.put(buf)
				}
			}
			ps.advanceSend()
		}
	}()
	for r := range cp.stages {
		// Gate: the sender must have issued every stage whose sends read
		// rows these receives are about to overwrite or accumulate into.
		if !ps.waitSend(cp.aggDep[r] + 1) {
			break
		}
		failed := false
		for _, rcv := range cp.stages[r].recvs {
			msg, err := tp.Recv(cctx, rcv.key, rcv.tr)
			if err != nil {
				ps.fail(fmt.Errorf("runtime: GPU %d recv: %w", d, err), cancel)
				failed = true
				break
			}
			agg(rowOf, rcv.slots, msg.Rows)
			c.recycle(pooled, msg)
		}
		if failed {
			break
		}
		ps.advanceAgg()
	}
	// The aggregator can finish while the sender still owes later-stage
	// sends (peers consume them, not us): join before declaring the client
	// done so the collective never returns with sends in flight.
	sender.Wait()
	return ps.firstErr()
}
