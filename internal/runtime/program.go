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
	// (backward relay accumulators; pooled arena memory is dirty). Forward
	// programs set it to arenaRows: every forward arena row is fully
	// overwritten by a receive before anything reads it.
	zeroFrom int
}

// routingProgram is the compiled form of one collective direction: per-client
// programs, the flattened transport stage layout they are keyed against, and
// the reusable channel transport bound to that layout.
type routingProgram struct {
	clients []clientProgram
	stages  [][]core.Transfer
	tc      transportCache
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
// Every accumulator therefore receives its contributions in plan transfer
// order, one client at a time, which is what makes the sums bit-identical to
// the §6.2 sub-stage schedule: that split only separates concurrent writers
// of one row, and a client here is its rows' only writer.
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

// transportCache holds the reusable channel transport bound to one compiled
// program's stage layout. Channel construction is O(transfers) per
// collective; with no fault injection a successful collective provably
// drains every channel — each key is sent exactly once and received exactly
// once, and the retry decorator only retransmits what faults reject — so
// the transport can carry the next collective as-is. Any client error
// (timeout, cancellation, dead device) may strand messages in channels, so a
// failed collective discards the cached transport instead of handing stale
// payloads to the next epoch.
type transportCache struct {
	mu    sync.Mutex
	base  Transport
	inUse bool
}

// acquire returns the cached transport when it is free, building (and, when
// the slot is empty, adopting) a fresh one otherwise. A transport built
// while the slot is busy simply runs uncached.
func (tc *transportCache) acquire(stages [][]core.Transfer) Transport {
	tc.mu.Lock()
	if tc.base != nil && !tc.inUse {
		tc.inUse = true
		b := tc.base
		tc.mu.Unlock()
		return b
	}
	busy := tc.base != nil
	tc.mu.Unlock()
	b := NewChanTransport(stages)
	if !busy {
		tc.mu.Lock()
		if tc.base == nil {
			tc.base, tc.inUse = b, true
		}
		tc.mu.Unlock()
	}
	return b
}

// release frees the cached transport after a collective; a failed collective
// drops it so the next acquire rebuilds clean channels.
func (tc *transportCache) release(b Transport, failed bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.base != b {
		return
	}
	tc.inUse = false
	if failed {
		tc.base = nil
	}
}

// acquireTransport returns the transport stack for one collective over the
// program's stage layout, the pooled base under it (nil unless the provider
// built one), and the release to call when the collective ends. The base is
// the program's cached channel transport whenever it is the in-memory
// channels and no faults are injected; a provider base or a faulty stack is
// built per collective.
func (c *Cluster) acquireTransport(prog *routingProgram) (Transport, PooledTransport, func(failed bool)) {
	switch {
	case c.Provider != nil:
		base := c.Provider.CollectiveTransport(prog.stages, c.DeviceIDs)
		pooled, _ := base.(PooledTransport)
		return c.newTransport(base), pooled, func(bool) {}
	case c.Faults != nil:
		return c.newTransport(NewChanTransport(prog.stages)), nil, func(bool) {}
	}
	base := prog.tc.acquire(prog.stages)
	return c.newTransport(base), nil, func(failed bool) { prog.tc.release(base, failed) }
}

// seal wraps a payload for transmission. Checksums exist so the one layer
// that can corrupt data (fault injection) is detectable end to end; without
// it nothing ever calls Valid — the channel stack never corrupts and the
// wire guards its frames with their own checksum — so sealing would burn a
// hash of every payload float for a field nobody reads. Profiling put that
// hash at ~21% of epoch CPU.
func (c *Cluster) seal(rows Message) Message {
	if c.Faults != nil {
		rows.Checksum = payloadChecksum(rows.Rows)
	}
	return rows
}

// recycle returns a consumed receive buffer to its pool. On the built-in
// stack that is the cluster pool: after a successful Recv the per-key
// channel is never read again, faults corrupt copies rather than originals,
// and retransmissions re-deliver the same buffer at most once — so the
// consumer owns the payload outright. A pooled transport (the wire transport
// pools its decode buffers) takes the payload back itself. Any other
// provider's transport may retain or replay messages, so its payloads are
// never pooled.
func (c *Cluster) recycle(pooled PooledTransport, msg Message) {
	if msg.Rows == nil {
		return
	}
	if c.Provider == nil {
		c.pool.put(msg.Rows)
		return
	}
	if pooled != nil {
		pooled.RecycleMessage(msg)
	}
}
