// Package collective implements the regular collective operations (ring
// allreduce, ring allgather, tree broadcast) that libraries like NCCL
// provide for data-parallel DNN training. The paper's §3 argues these do
// not fit GNN embedding passing — every GPU needs a *different* subset of
// vertices, while collectives assume uniform all-to-all data — and §8.2
// contrasts DGCL with them directly. This package makes that comparison
// concrete: it supplies (a) executable collectives used for model-gradient
// synchronization in the trainer, and (b) cost models over the same fabric
// abstraction, so experiments can quantify how much a regular allgather
// overshoots DGCL's planned exchange.
package collective

import (
	"fmt"

	"dgcl/internal/tensor"
)

// RingAllreduce sums the same-shaped matrices of all workers and leaves the
// sum in every worker's matrix, using the bandwidth-optimal two-phase ring
// (reduce-scatter + allgather), executed faithfully chunk by chunk so tests
// can verify the data movement pattern, not just the result.
func RingAllreduce(bufs []*tensor.Matrix) error {
	k := len(bufs)
	if k == 0 {
		return fmt.Errorf("collective: no workers")
	}
	n := len(bufs[0].Data)
	for i, b := range bufs {
		if len(b.Data) != n {
			return fmt.Errorf("collective: worker %d has %d elements, worker 0 has %d", i, len(b.Data), n)
		}
	}
	if k == 1 {
		return nil
	}
	// Chunk c of worker w: [start(c), start(c+1)).
	start := func(c int) int { return c * n / k }
	// Phase 1: reduce-scatter. In step s, worker w sends chunk (w-s) to
	// worker w+1, which accumulates. After k-1 steps, worker w holds the
	// full sum of chunk (w+1). Each step folds in place: within one step
	// every chunk has one sender and one receiver, and no worker reads a
	// chunk another writes in that step, so the synchronous ring needs no
	// snapshot of what is sent.
	for s := 0; s < k-1; s++ {
		for w := 0; w < k; w++ {
			c := ((w-s)%k + k) % k
			lo, hi := start(c), start(c+1)
			dst := bufs[(w+1)%k].Data[lo:hi]
			for i, v := range bufs[w].Data[lo:hi] {
				dst[i] += v
			}
		}
	}
	// Phase 2: allgather. Worker w owns the reduced chunk (w+1); circulate,
	// in place for the same reason.
	for s := 0; s < k-1; s++ {
		for w := 0; w < k; w++ {
			c := ((w+1-s)%k + k) % k
			lo, hi := start(c), start(c+1)
			copy(bufs[(w+1)%k].Data[lo:hi], bufs[w].Data[lo:hi])
		}
	}
	return nil
}

// FullAllgatherBytes returns the bytes a regular (NCCL-style) allgather
// moves to satisfy GNN embedding passing: every GPU must receive every
// other GPU's full partition, because the collective cannot subset. Compare
// with a plan's TotalBytes to quantify the overshoot the paper's §3
// describes.
func FullAllgatherBytes(partSizes []int, bytesPerVertex int64) int64 {
	k := len(partSizes)
	var total int64
	for _, sz := range partSizes {
		total += int64(sz) * bytesPerVertex * int64(k-1)
	}
	return total
}
