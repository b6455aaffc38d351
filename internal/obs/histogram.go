// Package obs holds the program's measurement primitives. Its first piece is
// Histogram, the fixed-bucket latency histogram the serving layer and its
// load generator read quantiles from.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits is log2 of the sub-buckets per power of two: 8 sub-buckets bound a
// bucket's width, and so a quantile's overestimate, by 1/8 of its value.
const subBits = 3

const (
	sub = 1 << subBits
	// numBuckets covers every non-negative int64: one bucket per value below
	// sub, then sub buckets per power of two from 2^subBits to 2^62.
	numBuckets = sub + (63-subBits)*sub
)

// Histogram counts durations in log-linear buckets: every value below 8 ns
// has a bucket of its own, and each power of two above is cut into 8 equal
// sub-buckets. Observe is lock-free and allocation-free. A quantile reads
// off the upper bound of the bucket holding the nearest-rank sample, so it
// is never below the exact quantile and at most 1/8 above it. Memory is
// fixed (numBuckets counters) however many samples arrive. The zero value
// is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
}

// bucket returns the index of the bucket holding ns; negative values count
// as 0.
func bucket(ns int64) int {
	if ns < sub {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1 // ns is in [2^e, 2^(e+1)), e >= subBits
	return (e-subBits+1)<<subBits + int(ns>>(e-subBits)) - sub
}

// upper returns the largest value bucket b holds.
func upper(b int) int64 {
	if b < sub {
		return int64(b)
	}
	e := b>>subBits + subBits - 1
	mant := uint64(b&(sub-1) + sub) // the top subBits+1 bits of b's values
	return int64((mant+1)<<(e-subBits) - 1)
}

// Observe counts one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucket(int64(d))].Add(1)
}

// Quantile returns the q-quantile (0 < q <= 1) of the observed durations:
// the upper bound of the bucket holding the ceil(q*n)-th smallest of the n
// samples. It returns 0 when nothing was observed. Concurrent Observe calls
// are either counted or not; the result is a quantile of the counted ones.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [numBuckets]uint64
	var n uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(n))), 1), n)
	var cum uint64
	for i, c := range counts {
		if cum += c; cum >= rank {
			return time.Duration(upper(i))
		}
	}
	panic("obs: histogram rank beyond its count")
}
