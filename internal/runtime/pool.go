package runtime

import (
	"math/bits"
	"sync"

	"dgcl/internal/tensor"
)

// bufPool is the size-classed free list behind MatrixPool, the wire
// transport's decode buffers: a frame is decoded into a pooled matrix, the
// receiving client lands its rows, and the stage loop hands it back through
// PooledTransport.RecycleMessage, so after the first collective warms the
// pool an epoch over sockets performs no per-frame data allocations. The
// in-process path takes nothing from it: a channel send hands over the
// sender's rows in place, and relay arenas are exact-size and owned by the
// compiled program (program.go).
//
// This is deliberately NOT a sync.Pool: sync.Pool is emptied by GC at
// arbitrary points, which would make steady-state allocation counts (and the
// testing.AllocsPerRun regression tests that pin them) nondeterministic. A
// plain mutex-guarded free list keeps buffers alive for the pool's lifetime
// — bounded, since the working set is one collective's frames.
//
// Buffers are binned by power-of-two capacity: get rounds the requested
// element count up to the next power of two (so a 100-row buffer can later
// serve a 97-row frame of the same shape class), put bins by the capacity's
// floor class. All pooled buffers are allocated here with exact power-of-two
// capacity, so the round trip is exact. Pooled memory is dirty by contract:
// the decoder fully overwrites every row it hands out.
type bufPool struct {
	mu sync.Mutex
	// free[cl] holds the buffers of capacity 1<<cl.
	free [64][]*tensor.Matrix
}

// get returns a rows×cols matrix backed by pooled (dirty) memory,
// allocating a power-of-two-capacity buffer on a miss.
func (p *bufPool) get(rows, cols int) *tensor.Matrix {
	n := rows * cols
	if n == 0 {
		return tensor.New(rows, cols)
	}
	cl := bits.Len(uint(n - 1)) // ceil(log2(n))
	p.mu.Lock()
	if ms := p.free[cl]; len(ms) > 0 {
		m := ms[len(ms)-1]
		p.free[cl] = ms[:len(ms)-1]
		p.mu.Unlock()
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		return m
	}
	p.mu.Unlock()
	return tensor.FromData(rows, cols, make([]float32, n, 1<<cl)[:n])
}

// MatrixPool is the exported face of the size-classed free list, for
// transports that manage their own receive buffers (the wire transport
// decodes frames into pooled matrices and takes them back through
// PooledTransport.RecycleMessage). Like bufPool it is deliberately not a
// sync.Pool, so AllocsPerRun regression tests over the wire path stay
// deterministic.
type MatrixPool struct{ p bufPool }

// Get returns a rows×cols matrix backed by pooled (dirty) memory.
func (mp *MatrixPool) Get(rows, cols int) *tensor.Matrix { return mp.p.get(rows, cols) }

// Put returns a matrix to the pool.
func (mp *MatrixPool) Put(m *tensor.Matrix) { mp.p.put(m) }

// put returns a matrix to the pool. Zero-capacity and non-pool-shaped
// buffers are dropped.
func (p *bufPool) put(m *tensor.Matrix) {
	c := cap(m.Data)
	if c == 0 {
		return
	}
	cl := bits.Len(uint(c)) - 1 // floor(log2(cap))
	p.mu.Lock()
	p.free[cl] = append(p.free[cl], m)
	p.mu.Unlock()
}
