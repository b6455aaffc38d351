package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 100} {
			hits := make([]atomic.Int32, n)
			For(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: index %d visited %d times", procs, n, i, c)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestForBoundsConcurrency(t *testing.T) {
	const procs = 2
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var running, peak atomic.Int32
	For(64, func(int) {
		r := running.Add(1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
		runtime.Gosched()
		running.Add(-1)
	})
	if p := peak.Load(); p > procs {
		t.Errorf("%d calls ran at once, GOMAXPROCS is %d", p, procs)
	}
}
