package serve

import (
	"sync"
	"time"

	"dgcl/internal/clock"
)

// The request batcher coalesces concurrent vertex-embedding queries into one
// batched forward per flush. A batch opens when the first request arrives
// and flushes on whichever cutoff hits first: the latency deadline (delay
// after the batch opened) or the occupancy cutoff (maxBatch requests).
// Shutdown drains: requests already queued are flushed before the goroutine
// exits, so no waiter is ever abandoned.

// request is one pending vertex-embedding query.
type request struct {
	vertex int32
	// ch receives exactly one response; it is buffered so the flusher never
	// blocks on a waiter that already gave up (context cancellation).
	ch chan response
}

// response answers one request.
type response struct {
	row     []float32
	version uint64
	err     error
}

// flushReason records which cutoff fired a flush.
type flushReason uint8

const (
	flushFull     flushReason = iota // occupancy cutoff: maxBatch requests
	flushDeadline                    // latency cutoff: delay expired
	flushDrain                       // shutdown drain
)

func (r flushReason) String() string {
	switch r {
	case flushFull:
		return "full"
	case flushDeadline:
		return "deadline"
	case flushDrain:
		return "drain"
	}
	return "unknown"
}

// flushFunc executes one batch (the batched forward + responses).
type flushFunc func(batch []request, reason flushReason)

// batcher owns the coalescing loop. The in channel doubles as the admission
// queue: its capacity is the queue-depth shed threshold, and a full channel
// rejects instead of queueing unbounded latency.
type batcher struct {
	in       chan request
	maxBatch int
	delay    time.Duration
	clock    clock.Clock
	flush    flushFunc
	done     chan struct{}

	mu     sync.RWMutex // guards closed against concurrent submit/close
	closed bool
}

func newBatcher(maxBatch int, delay time.Duration, queueDepth int, clk clock.Clock, flush flushFunc) *batcher {
	b := &batcher{
		in:       make(chan request, queueDepth),
		maxBatch: maxBatch,
		delay:    delay,
		clock:    clk,
		flush:    flush,
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// submit enqueues a request without blocking. It reports false when the
// queue is at the shed threshold (or the batcher is closed) — the caller
// surfaces ErrOverload instead of waiting.
func (b *batcher) submit(r request) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return false
	}
	select {
	case b.in <- r:
		return true
	default:
		return false
	}
}

// close stops admission, drains and flushes the pending requests, and waits
// for the coalescing goroutine to exit. Safe to call more than once.
func (b *batcher) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.in)
	}
	b.mu.Unlock()
	<-b.done
}

// run is the coalescing loop: one goroutine, one open batch, one deadline
// timer. Closing the in channel switches it into drain mode — buffered
// requests keep coalescing (occupancy flushes still apply) and the final
// partial batch flushes before exit.
func (b *batcher) run() {
	defer close(b.done)
	var batch []request
	var deadline <-chan time.Time
	var stop func() bool
	stopTimer := func() {
		if stop != nil {
			stop()
			deadline, stop = nil, nil
		}
	}
	for {
		select {
		case r, ok := <-b.in:
			if !ok {
				stopTimer()
				if len(batch) > 0 {
					b.flush(batch, flushDrain)
				}
				return
			}
			batch = append(batch, r)
			if len(batch) == 1 {
				deadline, stop = b.clock.After(b.delay)
			}
			if len(batch) >= b.maxBatch {
				stopTimer()
				b.flush(batch, flushFull)
				batch = nil
			}
		case <-deadline:
			deadline, stop = nil, nil
			if len(batch) > 0 {
				b.flush(batch, flushDeadline)
			}
			batch = nil
		}
	}
}
