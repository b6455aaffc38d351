package runtime

import (
	"fmt"
	"sync"

	"dgcl/internal/comm"
	"dgcl/internal/core"
)

// Compiled routing programs: the plan-dependent half of a collective, hoisted
// out of the per-epoch hot path. The legacy client loop rescanned every
// stage's full transfer list per client (`if tr.Src != d { continue }`) and
// resolved vertex ids through per-client hash maps on every row it touched —
// O(K·transfers) of scanning plus a map probe per vertex per stage, every
// collective, even though the plan never changes between epochs. compile()
// walks the stage list once per client and emits a clientProgram: the
// client's own sends/receives per stage with every vertex id pre-resolved to
// a dense slot. Execution then touches only its own transfers and does
// nothing but row copies at precomputed offsets.
//
// Slot encoding (per client):
//
//   - forward: slot s >= 0 is row s of the assembled `full` matrix (rows
//     [0, NumLocal) are the owned block, NumLocal+i is remote vertex i in
//     local-graph order — so receives land directly in their final output
//     position). s < 0 is row -s-1 of the relay arena: vertices this client
//     forwards down the tree but never consumes.
//   - backward: slot s >= 0 is row s of the owned-gradient accumulator;
//     s < 0 is row -s-1 of the gradient arena. Arena rows [0, NumRemote)
//     start as the remote block of gradFull (this client's own consumer
//     contribution); rows beyond that are relay-only accumulators that start
//     at zero.
//
// Programs are compiled lazily (once per plan) under progMu and shared by
// all subsequent collectives. Only the forward program is compiled from the
// plan; the backward one is its reversal.
//
// In-place transfers. A send hands its receiver the sender's rows themselves
// (an in-place Message: the sender's slot storage and the send's slot list),
// and the receiver copies or adds each row straight out of the sender's
// `full`/`own` matrix or relay arena. So no row may be written while a
// receiver can still read it, and that holds by construction:
//
//   - forward: owned rows are read-only, and each relay row (a remote row of
//     `full`, or an arena row) is written by exactly one receive, in an
//     earlier stage than any of its sends;
//   - backward (the reversed program): a relay row takes all its adds before
//     its one send, and nothing writes a row after sending it;
//   - across collectives: the relay arenas belong to the program (execState,
//     exact-size, one per client per column width) and are written again
//     only by the next collective that acquires the same state. That
//     collective starts after onEachRank's barrier has seen every client —
//     so every reader — finish; a concurrent collective runs on a fresh
//     state. A rank-resident epoch without that barrier (ROADMAP item 4)
//     must replace it with a done flag per arena: a client may not rewrite
//     its arena until its readers have signalled they are done.
//   - across epochs: a Trainer hands its forward collectives the gathered
//     inputs it keeps per layer and rank (and its backward collectives the
//     owned-gradient results), so a sender's `full` — owned rows and relay
//     rows alike, read in place by its receivers — is rewritten by the same
//     layer's collective in the next epoch. Only onEachRank's barrier at the
//     end of this collective orders that rewrite after every reader; the
//     rank-resident epoch of ROADMAP item 4 must keep that order with a done
//     flag per sender's `full` as well as per arena.

// ChunkRows bounds the rows of one transfer: compile splits every wider plan
// transfer into consecutive sub-transfers of at most this many rows within
// its stage. The bound keeps every wire frame well under the frame size
// limit, and because the chunked layout determines the transfer keys, every
// process of a multi-process run compiles the same one (the worker layer
// folds ChunkRows into the handshake's plan digest).
const ChunkRows = 256

// chunkStages splits every transfer wider than chunkRows rows into
// consecutive sub-transfers sharing its stage. Byte totals, row order, and
// stage membership are preserved — only the transfer granularity changes —
// so stats, crash schedules (stage-keyed), and plan validation (which ran on
// the unchunked plan) are all unaffected, and a client lands every row in
// the order the unchunked plan lists it: results are bit-identical to the
// unchunked layout. chunkRows <= 0 returns stages unchanged.
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

// sendStep is one compiled send: the transport key, the transfer (for
// accounting and failure attribution), the source slot of each payload row,
// and how many of those rows the sender relays for another owner (forward
// only; backward senders almost never own the gradients they forward, so
// the notion does not apply there).
type sendStep struct {
	key       TransferKey
	tr        core.Transfer
	slots     []int32
	relayRows int
}

// recvStep is one compiled receive: the destination slot of each incoming
// row.
type recvStep struct {
	key   TransferKey
	tr    core.Transfer
	slots []int32
}

// clientStage is one client's view of one stage.
type clientStage struct {
	sends []sendStep
	recvs []recvStep
}

// clientProgram is one client's complete routing program for a collective
// direction, plus the relay-arena row count its execution needs.
type clientProgram struct {
	stages    []clientStage
	arenaRows int
	// zeroFrom is the first arena row that must be zeroed before use
	// (backward relay accumulators; a program's arena still holds its last
	// collective's rows). Forward programs set it to arenaRows: every
	// forward arena row is fully overwritten by a receive before anything
	// reads it.
	zeroFrom int
}

// routingProgram is the compiled form of one collective direction: per-client
// programs, the flattened transport stage layout they are keyed against, and
// the cached state (channels, relay arenas) its collectives run in.
type routingProgram struct {
	clients []clientProgram
	stages  [][]core.Transfer
	cache   stateCache
}

// program returns the compiled program for one collective direction. Both
// directions are compiled together on first use.
func (c *Cluster) program(backward bool) (*routingProgram, error) {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	if c.fwdProg == nil {
		fwd, err := c.compileForward()
		if err != nil {
			return nil, err
		}
		c.fwdProg, c.bwdProg = fwd, fwd.reversed(c.Locals)
	}
	if backward {
		return c.bwdProg, nil
	}
	return c.fwdProg, nil
}

// compileForward builds the forward program from c.Plan.Stages, chunked at
// ChunkRows. The walk mirrors execution order exactly — stages in order,
// transfers in index order, sends resolved against pre-stage state — so the
// availability check the legacy loop made per row ("GPU d lacks vertex v at
// stage s") moves to compile time.
func (c *Cluster) compileForward() (*routingProgram, error) {
	stages := chunkStages(c.Plan.Stages, ChunkRows)
	prog := &routingProgram{clients: make([]clientProgram, c.K), stages: stages}
	for d := 0; d < c.K; d++ {
		lg := c.Locals[d]
		slot := make(map[int32]int32, lg.NumLocal+lg.NumRemote)
		for i, v := range c.Rel.Local[d] {
			slot[v] = int32(i)
		}
		for i := 0; i < lg.NumRemote; i++ {
			slot[lg.GlobalID[lg.NumLocal+i]] = int32(lg.NumLocal + i)
		}
		cp := &prog.clients[d]
		cp.stages = make([]clientStage, len(stages))
		relay := 0
		for si, st := range stages {
			cs := &cp.stages[si]
			for ti, tr := range st {
				if tr.Src == d {
					slots := make([]int32, len(tr.Vertices))
					relayRows := 0
					for i, v := range tr.Vertices {
						s, ok := slot[v]
						if !ok {
							return nil, fmt.Errorf("runtime: GPU %d lacks vertex %d at stage %d", d, v, si+1)
						}
						slots[i] = s
						if int(c.Rel.Owner[v]) != d {
							relayRows++
						}
					}
					cs.sends = append(cs.sends, sendStep{key: TransferKey{si, ti}, tr: tr, slots: slots, relayRows: relayRows})
				}
				if tr.Dst == d {
					slots := make([]int32, len(tr.Vertices))
					for i, v := range tr.Vertices {
						s, ok := slot[v]
						if !ok {
							// Relay-only vertex: held in the arena, never part
							// of this client's local graph.
							s = int32(-(relay + 1))
							relay++
							slot[v] = s
						}
						slots[i] = s
					}
					cs.recvs = append(cs.recvs, recvStep{key: TransferKey{si, ti}, tr: tr, slots: slots})
				}
			}
		}
		cp.arenaRows, cp.zeroFrom = relay, relay
	}
	return prog, nil
}

// reversed derives the backward program from the compiled forward one:
// gradients flow down the same trees the other way (§6.1), so backward stage
// b is forward stage S-1-b with every transfer's endpoints swapped, under the
// same transfer indices. Each client's forward sends become its receives and
// its forward receives its sends, in the same order, and each slot moves into
// the backward space: owned row i stays i, remote row NumLocal+i becomes
// arena row i (seeded with the client's own gradient contribution), and
// forward relay row r becomes arena row NumRemote+r (a zeroed accumulator).
// Every accumulator therefore takes its sums in plan transfer order, added
// by the one client that owns it: a client is its rows' only writer, so no
// two adds to a row ever race and the sums are deterministic.
func (fwd *routingProgram) reversed(locals []*comm.LocalGraph) *routingProgram {
	S := len(fwd.stages)
	prog := &routingProgram{clients: make([]clientProgram, len(fwd.clients)), stages: make([][]core.Transfer, S)}
	for si, st := range fwd.stages {
		rs := make([]core.Transfer, len(st))
		for ti, tr := range st {
			rs[ti] = core.Transfer{Src: tr.Dst, Dst: tr.Src, Vertices: tr.Vertices}
		}
		prog.stages[S-1-si] = rs
	}
	for d := range fwd.clients {
		lg, fc, cp := locals[d], &fwd.clients[d], &prog.clients[d]
		remap := func(fslots []int32) []int32 {
			slots := make([]int32, len(fslots))
			for i, s := range fslots {
				switch {
				case s < 0: // relay arena row r -> arena row NumRemote+r
					s -= int32(lg.NumRemote)
				case int(s) >= lg.NumLocal: // remote row -> arena row s-NumLocal
					s = int32(lg.NumLocal) - s - 1
				}
				slots[i] = s
			}
			return slots
		}
		cp.stages = make([]clientStage, S)
		for si, fs := range fc.stages {
			b := S - 1 - si
			cs := &cp.stages[b]
			for _, rcv := range fs.recvs {
				ti := rcv.key.Index
				cs.sends = append(cs.sends, sendStep{key: TransferKey{b, ti}, tr: prog.stages[b][ti], slots: remap(rcv.slots)})
			}
			for _, snd := range fs.sends {
				ti := snd.key.Index
				cs.recvs = append(cs.recvs, recvStep{key: TransferKey{b, ti}, tr: prog.stages[b][ti], slots: remap(snd.slots)})
			}
		}
		cp.arenaRows, cp.zeroFrom = lg.NumRemote+fc.arenaRows, lg.NumRemote
	}
	return prog
}

// execState is what one collective borrows from its program besides the
// compiled steps: the channel transport over the program's stage layout
// (built by the first collective that runs on the channels), each client's
// relay arena at every column width the program has run at, exact-size, and
// each client's slot storage, which its in-place messages point at.
type execState struct {
	chans  Transport
	arenas map[int][][]float32
	slots  []slotRows
}

func newExecState(k int) *execState {
	return &execState{arenas: make(map[int][][]float32), slots: make([]slotRows, k)}
}

// bind points client d's slot storage at its relay arena for width cols,
// allocating the arena (arenaRows×cols, exact) on the program's first
// collective at that width. The client sets its own rows. Call it before the
// clients start: the arena map takes no lock.
func (st *execState) bind(d, cols, arenaRows int) {
	set := st.arenas[cols]
	if set == nil {
		set = make([][]float32, len(st.slots))
		st.arenas[cols] = set
	}
	if set[d] == nil {
		set[d] = make([]float32, arenaRows*cols)
	}
	st.slots[d] = slotRows{arena: set[d], cols: cols}
}

// stateCache holds one program's reusable execState under a single in-use
// flag. Reusing it is safe on two counts. With no fault injection a
// successful collective drains every channel: each key is sent exactly once
// and received exactly once, and the retry decorator only retransmits what
// faults reject. And every client, so every reader of an arena, has
// finished when the collective returns (the arena rules at the top of this
// file). Any client error (timeout, cancellation, dead device) may strand
// messages in channels, so a failed collective discards the state instead of
// handing stale payloads to the next epoch. A collective that finds the
// state in use runs on a fresh one, so two concurrent collectives on one
// cluster never share an arena.
type stateCache struct {
	mu    sync.Mutex
	st    *execState
	inUse bool
}

// acquire returns the cached state when it is free, and a fresh one
// otherwise; a fresh state built while the slot is empty is adopted.
func (sc *stateCache) acquire(k int) *execState {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.st != nil && sc.inUse {
		return newExecState(k)
	}
	if sc.st == nil {
		sc.st = newExecState(k)
	}
	sc.inUse = true
	return sc.st
}

// release frees the cached state after a collective; a failed collective
// drops it so the next acquire starts clean.
func (sc *stateCache) release(st *execState, failed bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.st != st {
		return
	}
	sc.inUse = false
	if failed {
		sc.st = nil
	}
}

// stack is one collective's transport stack and how the stage loop uses it.
type stack struct {
	tp Transport
	// pooled is the provider's base when it pools its payloads (nil
	// otherwise): consumed receives go back to it.
	pooled PooledTransport
	// inPlace: sends hand over the sender's rows (in-place messages). It
	// holds on the channels and on a PooledTransport, which reads a message
	// before Send returns, with or without fault injection (which seals and
	// corrupts through Message.Row, never writing the sender's rows). Only a
	// provider whose transport is not a PooledTransport may keep a payload,
	// so it alone gets a materialised copy.
	inPlace bool
}

// acquireStack returns the transport stack for one collective over the
// program's stage layout, the program state it runs in, and the release to
// call when the collective ends. The base is the state's channel transport
// whenever it is the in-memory channels and no faults are injected; a
// provider base or a faulty stack is built per collective.
func (c *Cluster) acquireStack(prog *routingProgram) (stack, *execState, func(failed bool)) {
	st := prog.cache.acquire(c.K)
	release := func(failed bool) { prog.cache.release(st, failed) }
	switch {
	case c.Provider != nil:
		base := c.Provider.CollectiveTransport(prog.stages, c.DeviceIDs)
		pooled, _ := base.(PooledTransport)
		return stack{tp: c.newTransport(base), pooled: pooled, inPlace: pooled != nil}, st, release
	case c.Faults != nil:
		return stack{tp: c.newTransport(NewChanTransport(prog.stages)), inPlace: true}, st, release
	}
	if st.chans == nil {
		// Fault-free, each transfer is sent exactly once: one slot each.
		st.chans = newChanTransport(prog.stages, 1)
	}
	return stack{tp: c.newTransport(st.chans), inPlace: true}, st, release
}
