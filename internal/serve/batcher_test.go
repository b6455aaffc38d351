package serve

import (
	"sync"
	"testing"
	"time"

	"dgcl/internal/clock"
	"dgcl/internal/testutil"
)

func newFakeClock() *clock.Fake { return clock.NewFake(time.Unix(1700000000, 0)) }

// flushRecorder collects flushes for assertions.
type flushRecorder struct {
	mu      sync.Mutex
	flushes []recordedFlush
	notify  chan struct{}
}

type recordedFlush struct {
	vertices []int32
	reason   flushReason
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{notify: make(chan struct{}, 64)}
}

func (r *flushRecorder) flush(batch []request, reason flushReason) {
	var vs []int32
	for _, req := range batch {
		vs = append(vs, req.vertex)
		req.ch <- response{version: 1}
	}
	r.mu.Lock()
	r.flushes = append(r.flushes, recordedFlush{vertices: vs, reason: reason})
	r.mu.Unlock()
	r.notify <- struct{}{}
}

func (r *flushRecorder) wait(t *testing.T, n int) []recordedFlush {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		r.mu.Lock()
		if len(r.flushes) >= n {
			out := append([]recordedFlush(nil), r.flushes...)
			r.mu.Unlock()
			return out
		}
		r.mu.Unlock()
		select {
		case <-r.notify:
		case <-deadline:
			t.Fatalf("timed out waiting for %d flushes", n)
		}
	}
}

func submitN(t *testing.T, b *batcher, vertices ...int32) []request {
	t.Helper()
	reqs := make([]request, len(vertices))
	for i, v := range vertices {
		reqs[i] = request{vertex: v, ch: make(chan response, 1)}
		if !b.submit(reqs[i]) {
			t.Fatalf("submit(%d) shed unexpectedly", v)
		}
	}
	return reqs
}

// waitBatched polls until the batcher's run loop has drained the in channel
// (the requests are in the open batch), so a subsequent clock advance is
// guaranteed to find the deadline timer armed.
func waitBatched(t *testing.T, b *batcher) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(b.in) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("batcher never drained its queue")
		}
		time.Sleep(time.Millisecond)
	}
	// One more beat: the last request may be read but not yet appended.
	time.Sleep(2 * time.Millisecond)
}

func TestBatcherDeadlineFiresBeforeOccupancy(t *testing.T) {
	base := testutil.Goroutines()
	clk := newFakeClock()
	rec := newFlushRecorder()
	b := newBatcher(8, 10*time.Millisecond, 64, clk, rec.flush)

	submitN(t, b, 1, 2, 3)
	waitBatched(t, b)
	clk.Advance(10 * time.Millisecond)

	flushes := rec.wait(t, 1)
	if got := flushes[0]; got.reason != flushDeadline || len(got.vertices) != 3 {
		t.Fatalf("flush = %d vertices, reason %v; want 3 vertices on deadline", len(got.vertices), got.reason)
	}
	b.close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}

func TestBatcherOccupancyFiresBeforeDeadline(t *testing.T) {
	clk := newFakeClock()
	rec := newFlushRecorder()
	b := newBatcher(4, time.Hour, 64, clk, rec.flush)
	defer b.close()

	// The deadline is an hour out and the clock never advances: only the
	// occupancy cutoff can fire.
	submitN(t, b, 1, 2, 3, 4)
	flushes := rec.wait(t, 1)
	if got := flushes[0]; got.reason != flushFull || len(got.vertices) != 4 {
		t.Fatalf("flush = %d vertices, reason %v; want 4 vertices on occupancy", len(got.vertices), got.reason)
	}

	// The next batch opens fresh and fills again.
	submitN(t, b, 5, 6, 7, 8)
	flushes = rec.wait(t, 2)
	if got := flushes[1]; got.reason != flushFull || len(got.vertices) != 4 {
		t.Fatalf("second flush = %d vertices, reason %v; want 4 on occupancy", len(got.vertices), got.reason)
	}
}

func TestBatcherShedsAtQueueThreshold(t *testing.T) {
	clk := newFakeClock()
	// A flush gate that blocks keeps the run loop busy so submissions pile
	// up in the queue.
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	b := newBatcher(1, time.Hour, 4, clk, func(batch []request, _ flushReason) {
		<-gate
		for _, r := range batch {
			r.ch <- response{}
		}
	})

	// maxBatch 1: the first request is picked up immediately and its flush
	// blocks on the gate. The queue (capacity 4) then fills.
	submitN(t, b, 0)
	waitBatched(t, b)
	accepted := 0
	for i := int32(1); i <= 16; i++ {
		if b.submit(request{vertex: i, ch: make(chan response, 1)}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d queued requests at threshold 4", accepted)
	}
	release()
	b.close()
}

func TestBatcherDrainsOnShutdown(t *testing.T) {
	base := testutil.Goroutines()
	clk := newFakeClock()
	rec := newFlushRecorder()
	b := newBatcher(8, time.Hour, 64, clk, rec.flush)

	reqs := submitN(t, b, 1, 2, 3, 4, 5)
	b.close() // deadline never fired, batch not full: drain must flush

	seen := 0
	for _, r := range reqs {
		select {
		case <-r.ch:
			seen++
		default:
			t.Fatalf("request %d abandoned on shutdown", r.vertex)
		}
	}
	if seen != len(reqs) {
		t.Fatalf("answered %d of %d requests", seen, len(reqs))
	}
	flushes := rec.wait(t, 1)
	last := flushes[len(flushes)-1]
	if last.reason != flushDrain {
		t.Fatalf("final flush reason %v, want drain", last.reason)
	}
	total := 0
	for _, f := range flushes {
		total += len(f.vertices)
	}
	if total != 5 {
		t.Fatalf("flushed %d vertices total, want 5", total)
	}
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}

	// Submissions after close shed rather than block.
	if b.submit(request{vertex: 9, ch: make(chan response, 1)}) {
		t.Fatal("submit after close accepted")
	}
}
