package serve

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dgcl"
	"dgcl/internal/comm/wire"
	"dgcl/internal/testutil"
)

// blockedServer returns a server whose version-0 forward has run and whose
// memo UpdateModel then retired, with the server mutex held by the test: the
// next miss starts a flight whose forward blocks until release. want is the
// direct forward every answer must equal, at any version.
func blockedServer(t *testing.T, seed int64, cfg Config) (srv *Server, want *dgcl.Matrix, release func()) {
	t.Helper()
	sys, model, features, targets := buildFixture(t, seed)
	want = directForward(t, sys, model, features, targets)
	srv, err := New(sys, model, features, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.UpdateModel(model); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close) // cleanups run last-in first-out: after release
	srv.mu.Lock()
	release = sync.OnceFunc(srv.mu.Unlock)
	t.Cleanup(release)
	return srv, want, release
}

// answer is one Query's outcome, tagged with its vertex.
type answer struct {
	vertex int
	res    Result
	err    error
}

// missAsync issues Query(ctx, v) on a new goroutine; its answer arrives on
// out.
func missAsync(ctx context.Context, srv *Server, v int, out chan<- answer) {
	go func() {
		res, err := srv.Query(ctx, v)
		out <- answer{v, res, err}
	}()
}

// waitWaiting polls until n misses have joined the server's flight.
func waitWaiting(t *testing.T, srv *Server, n int64) {
	t.Helper()
	waitFor(t, "the misses joining the flight", func() bool { return srv.waiting.Load() == n })
}

// checkAnswer fails unless a answered at version 1 with want's row.
func checkAnswer(t *testing.T, a answer, want *dgcl.Matrix) {
	t.Helper()
	if a.err != nil {
		t.Fatalf("vertex %d: %v", a.vertex, a.err)
	}
	if a.res.Version != 1 || a.res.Cached || !rowsEqualBitwise(a.res.Row, want.Row(a.vertex)) {
		t.Fatalf("vertex %d: version %d, cached %v, or row differs from the direct forward", a.vertex, a.res.Version, a.res.Cached)
	}
}

// TestFlightWaiterBoundShedsAtQueueDepth: with the forward blocked,
// QueueDepth 4 admits four waiting misses and sheds the fifth at once.
func TestFlightWaiterBoundShedsAtQueueDepth(t *testing.T) {
	srv, want, release := blockedServer(t, 7, Config{QueueDepth: 4})
	out := make(chan answer, 4)
	for v := 1; v <= 4; v++ {
		missAsync(context.Background(), srv, v, out)
	}
	waitWaiting(t, srv, 4)
	if _, err := srv.Query(context.Background(), 5); !errors.Is(err, ErrOverload) {
		t.Fatalf("fifth waiting miss: error %v, want ErrOverload", err)
	}
	if got := srv.Stats().ShedQueue; got != 1 {
		t.Fatalf("ShedQueue = %d, want 1", got)
	}
	release()
	for i := 0; i < 4; i++ {
		checkAnswer(t, <-out, want)
	}
}

// TestFlightWaiterCancelReturnsWhileForwardBlocked: a waiter whose ctx ends
// gives up with ctx.Err while the forward it waits for is still blocked; the
// miss running the forward is answered once it is released.
func TestFlightWaiterCancelReturnsWhileForwardBlocked(t *testing.T) {
	srv, want, release := blockedServer(t, 7, Config{})
	out := make(chan answer, 2)
	missAsync(context.Background(), srv, 1, out)
	waitWaiting(t, srv, 1)
	ctx, cancel := context.WithCancel(context.Background())
	missAsync(ctx, srv, 2, out)
	waitWaiting(t, srv, 2)
	cancel()
	select {
	case a := <-out:
		if a.vertex != 2 || !errors.Is(a.err, context.Canceled) {
			t.Fatalf("vertex %d returned %v while the forward was blocked; want vertex 2 with context.Canceled", a.vertex, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a cancelled waiter did not return while the forward was blocked")
	}
	if got := srv.waiting.Load(); got != 1 {
		t.Fatalf("%d misses still counted as waiting after the cancel, want 1", got)
	}
	release()
	checkAnswer(t, <-out, want)
}

// TestFlightConcurrentMissesShareOneForward: misses that wait for one
// blocked forward are all answered by it — Flushes rises by exactly 1 —
// bit-identical to the direct forward, with the memo on or off.
func TestFlightConcurrentMissesShareOneForward(t *testing.T) {
	for _, cacheEntries := range []int{0, -1} {
		srv, want, release := blockedServer(t, 7, Config{CacheEntries: cacheEntries})
		before := srv.Stats()
		const n = 16
		out := make(chan answer, n)
		for v := 0; v < n; v++ {
			missAsync(context.Background(), srv, v, out)
		}
		waitWaiting(t, srv, n)
		release()
		for i := 0; i < n; i++ {
			checkAnswer(t, <-out, want)
		}
		after := srv.Stats()
		if got := after.Flushes - before.Flushes; got != 1 {
			t.Fatalf("CacheEntries %d: %d misses ran %d forwards, want 1", cacheEntries, n, got)
		}
		if got := after.Misses - before.Misses; got != n {
			t.Fatalf("CacheEntries %d: Misses rose by %d, want %d", cacheEntries, got, n)
		}
	}
}

// TestFlightLeavesBeforeServerMutexIsReleased pins the order of fly's last
// steps: a finished flight leaves s.flight before s.mu is released, so no
// UpdateModel can retire the flight's version while a later miss could
// still join it. The test parks fly between its forward and that clear by
// holding flightMu: UpdateModel must then stay blocked on s.mu. Once fly is
// let go, a miss issued after UpdateModel returns runs a new flight and
// carries the new version.
func TestFlightLeavesBeforeServerMutexIsReleased(t *testing.T) {
	sys, model, features, _ := buildFixture(t, 9)
	srv, err := New(sys, model, features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close) // cleanups run last-in first-out: after the unlocks
	srv.mu.Lock()
	unlockMu := sync.OnceFunc(srv.mu.Unlock)
	t.Cleanup(unlockMu)
	out := make(chan answer, 1)
	missAsync(context.Background(), srv, 3, out)
	waitFor(t, "flight started by the miss", func() bool {
		srv.flightMu.Lock()
		defer srv.flightMu.Unlock()
		return srv.flight != nil
	})
	srv.flightMu.Lock()
	unlockFlight := sync.OnceFunc(srv.flightMu.Unlock)
	t.Cleanup(unlockFlight)
	unlockMu()
	waitFor(t, "memo published by the forward", func() bool { return srv.memo.Load() != nil })
	updated := make(chan error, 1)
	go func() { updated <- srv.UpdateModel(perturbed(model)) }()
	select {
	case err := <-updated:
		t.Fatalf("UpdateModel returned (err %v) while the finished flight was still in s.flight: fly released s.mu before leaving it", err)
	case <-time.After(200 * time.Millisecond):
	}
	unlockFlight()
	if a := <-out; a.err != nil || a.res.Version != 0 {
		t.Fatalf("the blocked miss answered version %d, err %v; want version 0", a.res.Version, a.err)
	}
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
	res, err := srv.Query(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Cached {
		t.Fatalf("a miss after UpdateModel answered version %d (cached %v), want a new forward at version 1", res.Version, res.Cached)
	}
}

// TestFlightCloseAnswersWaitersThenSheds: Close during a blocked forward
// waits for it, its waiters are answered, a miss after Close sheds, and no
// goroutine is left behind.
func TestFlightCloseAnswersWaitersThenSheds(t *testing.T) {
	base := testutil.Goroutines()
	srv, want, release := blockedServer(t, 7, Config{})
	const n = 3
	out := make(chan answer, n)
	for v := 1; v <= n; v++ {
		missAsync(context.Background(), srv, v, out)
	}
	waitWaiting(t, srv, n)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	waitFor(t, "Close to mark the server closed", func() bool {
		srv.flightMu.Lock()
		defer srv.flightMu.Unlock()
		return srv.closed
	})
	if _, err := srv.Query(context.Background(), 0); !errors.Is(err, ErrOverload) {
		t.Fatalf("miss after Close: error %v, want ErrOverload", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while the forward was still blocked")
	default:
	}
	release()
	<-closed
	for i := 0; i < n; i++ {
		checkAnswer(t, <-out, want)
	}
	if st := srv.Stats(); st.ShedQueue != 1 || st.Errors != 0 {
		t.Fatalf("ShedQueue %d, Errors %d; want 1 and 0", st.ShedQueue, st.Errors)
	}
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}

// TestFlightIdleServerStartsNoGoroutine: a server that is never queried runs
// nothing in the background.
func TestFlightIdleServerStartsNoGoroutine(t *testing.T) {
	sys, model, features, _ := buildFixture(t, 7)
	base := testutil.Goroutines()
	srv, err := New(sys, model, features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := testutil.Goroutines(); got > base {
		t.Fatalf("New started %d goroutines", got-base)
	}
	srv.Close()
}

// TestServeListenerReturnsOnCloseWithClientsConnected: closing the listener
// while one client sits idle and another waits for a reply still being
// computed writes that reply, then ServeListener returns promptly without
// leaking a goroutine, though neither client hung up.
func TestServeListenerReturnsOnCloseWithClientsConnected(t *testing.T) {
	base := testutil.Goroutines()
	sys, model, features, targets := buildFixture(t, 13)
	want := directForward(t, sys, model, features, targets)
	srv, err := New(sys, model, features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := listenLoopback(t)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ln) }()

	// idle answers one query, then sends nothing more.
	idle, _ := tcpQuerierForTest(t, ln.Addr().String())
	if row := idle(0); !rowsEqualBitwise(row, want.Row(0)) {
		t.Fatal("vertex 0 over TCP differs from the direct forward")
	}

	// busy sends a query whose forward is blocked when the listener closes.
	busy, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if err := srv.UpdateModel(model); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	release := sync.OnceFunc(srv.mu.Unlock)
	defer release()
	if err := WriteRequest(busy, &Request{Op: OpQuery, ID: 1, Vertices: []int32{1}}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitWaiting(t, srv, 1)
	ln.Close()
	select {
	case err := <-served:
		t.Fatalf("ServeListener returned (%v) before the pending reply was written", err)
	case <-time.After(20 * time.Millisecond):
	}
	release()
	var reply QueryReply
	if err := wire.ReadControl(busy, &reply, 10*time.Second); err != nil {
		t.Fatalf("the reply pending at close was not written: %v", err)
	}
	if reply.Errors[0] != "" || reply.Versions[0] != 1 || !rowsEqualBitwise(reply.Rows[0], want.Row(1)) {
		t.Fatalf("pending reply: error %q, version %d, or row differs from the direct forward", reply.Errors[0], reply.Versions[0])
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeListener: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("ServeListener still running 1s after the listener closed, with clients connected")
	}
	srv.Close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}
