package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketEdges pins where values land: 0 and 1 ns exactly, each
// power of two at the bottom of a fresh bucket (its predecessor at the top
// of the one before), and the largest int64 in the top bucket, whose upper
// bound it is.
func TestHistogramBucketEdges(t *testing.T) {
	if b := bucket(0); b != 0 || upper(b) != 0 {
		t.Fatalf("0 ns: bucket %d, upper %d", b, upper(b))
	}
	if b := bucket(1); b != 1 || upper(b) != 1 {
		t.Fatalf("1 ns: bucket %d, upper %d", b, upper(b))
	}
	if b := bucket(-5); b != 0 {
		t.Fatalf("negative duration in bucket %d, want 0", b)
	}
	for e := 1; e < 63; e++ {
		p := int64(1) << e
		b := bucket(p)
		if b != bucket(p-1)+1 {
			t.Fatalf("2^%d: bucket %d does not follow 2^%d-1's %d", e, b, e, bucket(p-1))
		}
		if upper(b-1) != p-1 {
			t.Fatalf("2^%d: the bucket below ends at %d, want %d", e, upper(b-1), p-1)
		}
		if upper(b) < p || upper(b) > p+p/8 {
			t.Fatalf("2^%d: bucket %d ends at %d, outside [2^%d, 2^%d*9/8]", e, b, upper(b), e, e)
		}
	}
	top := bucket(math.MaxInt64)
	if top != numBuckets-1 || upper(top) != math.MaxInt64 {
		t.Fatalf("MaxInt64: bucket %d of %d, upper %d", top, numBuckets, upper(top))
	}
	var h Histogram
	h.Observe(math.MaxInt64)
	if got := h.Quantile(0.5); got != math.MaxInt64 {
		t.Fatalf("top-bucket quantile = %d, want MaxInt64", got)
	}
	// Every bucket's values map back to it and the buckets tile the range.
	for b := 1; b < numBuckets; b++ {
		lo := upper(b-1) + 1
		if bucket(lo) != b || bucket(upper(b)) != b {
			t.Fatalf("bucket %d: [%d, %d] maps to %d and %d", b, lo, upper(b), bucket(lo), bucket(upper(b)))
		}
	}
}

// TestHistogramQuantilesWithinOneEighth checks every read quantile against
// the exact nearest-rank quantile of the same seeded samples: never below
// it, never more than 1/8 above it.
func TestHistogramQuantilesWithinOneEighth(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		var h Histogram
		samples := make([]time.Duration, n)
		for i := range samples {
			// Log-uniform over 1 ns to about 17 minutes.
			samples[i] = time.Duration(math.Exp(rng.Float64() * 30))
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(n)))
			exact := samples[max(rank, 1)-1]
			got := h.Quantile(q)
			if got < exact || float64(got-exact) > float64(exact)/8 {
				t.Fatalf("seed %d, n %d: q%g = %v, exact %v", seed, n, q, got, exact)
			}
		}
	}
}

// TestHistogramConcurrentObserve counts from several goroutines at once; run
// under -race it also shows Observe and Quantile need no lock.
func TestHistogramConcurrentObserve(t *testing.T) {
	const workers, each = 4, 2000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each + i))
				if i%500 == 0 {
					h.Quantile(0.5)
				}
			}
		}()
	}
	wg.Wait()
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	if n != workers*each {
		t.Fatalf("counted %d observations, want %d", n, workers*each)
	}
	if got := h.Quantile(1); got < workers*each-1 || got > (workers*each-1)*9/8 {
		t.Fatalf("max = %v, want about %d", got, workers*each-1)
	}
}
