// Package par runs independent, index-addressed jobs concurrently. The
// set-up path uses it where work splits along a structural axis — machines
// in the hierarchical partitioner, devices in the relation and local-graph
// builders — and every job writes only its own slot of the output, so
// results do not depend on how the jobs were scheduled.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0,n), from at most GOMAXPROCS
// goroutines (the caller's included), and returns when every call has
// returned. Calls for different i may run at the same time: fn must not
// write anything another call reads or writes.
func For(n int, fn func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
