package tensor

import (
	"sync"
	"sync/atomic"
)

// Deterministic parallel kernels. The three matmul variants partition their
// OUTPUT rows into contiguous per-worker ranges, so every output row is
// written by exactly one worker and is computed with exactly the serial
// loop's accumulation order. That makes the result bit-identical to the
// serial kernel for any worker count — the same one-writer argument the
// non-atomic backward allgather (§6.2) and the wave-commit planner rely on.
// Parallelism is a process-wide knob (dgcl.Options.KernelWorkers / the
// dgcltrain -kernel-workers flag) rather than a per-call argument because
// the GNN layers call these kernels from K concurrent client goroutines; the
// knob only changes speed, never results.

// kernelWorkers is the worker count used by ParallelRows (1 = serial).
var kernelWorkers atomic.Int32

func init() { kernelWorkers.Store(1) }

// SetParallelism sets the number of workers the row-partitioned kernels use
// and returns the previous value. Values below 1 are treated as 1. Results
// are bit-identical for every worker count; only wall-clock time changes.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(kernelWorkers.Swap(int32(n)))
}

// Parallelism returns the current kernel worker count.
func Parallelism() int { return int(kernelWorkers.Load()) }

// ParallelRows splits [0, rows) into at most Parallelism() contiguous
// chunks and runs fn(lo, hi) for each, concurrently when more than one
// worker is configured. fn must only write state owned by rows [lo, hi) —
// the one-writer-per-row discipline that keeps parallel execution
// bit-identical to serial. Exported so the GNN aggregator can reuse the
// same partitioning for its per-output-row forward loop.
func ParallelRows(rows int, fn func(lo, hi int)) {
	w := int(kernelWorkers.Load())
	if w > rows {
		w = rows
	}
	if w <= 1 {
		if rows > 0 {
			fn(0, rows)
		}
		return
	}
	chunk, rem := rows/w, rows%w
	var wg sync.WaitGroup
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// matMulRows computes out[lo:hi] of out = a × b with the serial i-k-j loop,
// k blocked by four: every output element still receives its k-terms one at
// a time in ascending k (see Axpy4), so results are bit-identical to the
// unblocked kernel. b is a header by value so that MatMulABT's transposed
// copy needs no heap header.
func matMulRows(a *Matrix, b Matrix, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		k := 0
		for ; k+3 < len(arow); k += 4 {
			Axpy4(arow[k], arow[k+1], arow[k+2], arow[k+3],
				b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3), orow)
		}
		for ; k < len(arow); k++ {
			Axpy(arow[k], b.Row(k), orow)
		}
	}
}

// matMulATBRows computes output rows [lo, hi) of out = aᵀ × b. The k loop is
// outermost so each output row is resolved once and stays hot, but every row
// still accumulates its per-i contributions in ascending i — the exact
// serial order, since iteration order within one output row is all that
// bit-identity depends on. Workers split the k range, never the i range.
func matMulATBRows(a, b, out *Matrix, lo, hi int) {
	for k := lo; k < hi; k++ {
		orow := out.Row(k)
		i := 0
		for ; i+3 < a.Rows; i += 4 {
			Axpy4(a.Data[i*a.Cols+k], a.Data[(i+1)*a.Cols+k], a.Data[(i+2)*a.Cols+k], a.Data[(i+3)*a.Cols+k],
				b.Row(i), b.Row(i+1), b.Row(i+2), b.Row(i+3), orow)
		}
		for ; i < a.Rows; i++ {
			Axpy(a.Data[i*a.Cols+k], b.Row(i), orow)
		}
	}
}
