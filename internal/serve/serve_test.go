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
	"dgcl/internal/worker"
)

func listenLoopback(t *testing.T) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

// tcpQuerierForTest returns a single-vertex query function over a fresh
// connection plus its closer (close before shutting the listener down, or
// ServeListener waits out the idle timeout on the open connection).
func tcpQuerierForTest(t *testing.T, addr string) (func(v int) []float32, func()) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	closer := func() { once.Do(func() { conn.Close() }) }
	t.Cleanup(closer)
	var id uint64
	query := func(v int) []float32 {
		id++
		req := Request{Op: OpQuery, ID: id, Vertices: []int32{int32(v)}}
		if err := WriteRequest(conn, &req, 10*time.Second); err != nil {
			t.Fatalf("WriteRequest(%d): %v", v, err)
		}
		var reply QueryReply
		if err := wire.ReadControl(conn, &reply, 10*time.Second); err != nil {
			t.Fatalf("ReadControl(%d): %v", v, err)
		}
		if reply.ID != id || len(reply.Rows) != 1 || reply.Errors[0] != "" {
			t.Fatalf("malformed reply for vertex %d: %+v", v, reply)
		}
		return reply.Rows[0]
	}
	return query, closer
}

// serveSpec is the battery's fixture: the resilience suite's Web-Google
// fixture (4 GPUs, 2-layer GCN, feature dim 16) built through the
// deterministic worker spec.
func serveSpec(seed int64) worker.Spec {
	return worker.Spec{
		Dataset:    "Web-Google",
		Scale:      4096,
		GPUs:       4,
		FeatureDim: 16,
		Hidden:     8,
		Layers:     2,
		Seed:       seed,
	}
}

func buildFixture(t *testing.T, seed int64) (*dgcl.System, *dgcl.Model, *dgcl.Matrix, *dgcl.Matrix) {
	t.Helper()
	sys, model, features, targets, err := worker.Build(serveSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys, model, features, targets
}

// directForward computes the ground truth: a fresh trainer over the
// same system, one full forward.
func directForward(t *testing.T, sys *dgcl.System, model *dgcl.Model, features, targets *dgcl.Matrix) *dgcl.Matrix {
	t.Helper()
	tr, err := sys.NewTrainer(model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Forward(features.Rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// queryAll fans every vertex through the server concurrently (so misses
// share a flight) and returns the rows and versions indexed by vertex.
func queryAll(t *testing.T, srv *Server, n int) ([][]float32, []uint64) {
	t.Helper()
	rows := make([][]float32, n)
	versions := make([]uint64, n)
	errs := make([]error, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := srv.Query(ctx, v)
			rows[v], versions[v], errs[v] = res.Row, res.Version, err
		}()
	}
	wg.Wait()
	for v, err := range errs {
		if err != nil {
			t.Fatalf("Query(%d): %v", v, err)
		}
	}
	return rows, versions
}

func rowsEqualBitwise(a []float32, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServedEmbeddingsBitwiseEqualDirectForward is the first property of the
// battery: for every vertex, the served embedding — from the version's one
// forward, or from its memo — is bitwise identical to a direct
// forward pass on a fresh trainer, both on the miss path and on the
// subsequent hit path.
func TestServedEmbeddingsBitwiseEqualDirectForward(t *testing.T) {
	for _, seed := range []int64{11, 23} {
		base := testutil.Goroutines()
		sys, model, features, targets := buildFixture(t, seed)
		want := directForward(t, sys, model, features, targets)
		n := features.Rows

		srv, err := New(sys, model, features, Config{
			QueueDepth:   n + 16,
			CacheEntries: n,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Miss path: the first queries wait for the version's one
		// forward answers them (later ones may already read its memo).
		rows, versions := queryAll(t, srv, n)
		for v := 0; v < n; v++ {
			if versions[v] != 0 {
				t.Fatalf("seed %d: vertex %d served version %d, want 0", seed, v, versions[v])
			}
			if !rowsEqualBitwise(rows[v], want.Row(v)) {
				t.Fatalf("seed %d: vertex %d miss-path row differs from direct forward", seed, v)
			}
		}

		// Hit path: the same queries again must come from the memo, bitwise
		// unchanged.
		for v := 0; v < n; v++ {
			res, err := srv.Query(context.Background(), v)
			if err != nil {
				t.Fatalf("seed %d: memo Query(%d): %v", seed, v, err)
			}
			if !res.Cached {
				t.Fatalf("seed %d: vertex %d missed on the second pass", seed, v)
			}
			if !rowsEqualBitwise(res.Row, want.Row(v)) {
				t.Fatalf("seed %d: vertex %d hit-path row differs from direct forward", seed, v)
			}
		}

		st := srv.Stats()
		if st.Hits < uint64(n) {
			t.Fatalf("seed %d: %d hits after a full memo pass, want >= %d", seed, st.Hits, n)
		}
		if st.Flushes != 1 || st.Hits+st.Misses != uint64(2*n) {
			t.Fatalf("seed %d: %d forwards (want 1), %d hits + %d misses (want %d)", seed, st.Flushes, st.Hits, st.Misses, 2*n)
		}
		srv.Close()
		if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
			t.Fatalf("seed %d: goroutines leaked", seed)
		}
	}
}

// TestEpochInvalidationNoStaleEmbeddings is the second property: after an
// epoch-boundary refresh (System.OnEpochEnd -> Server.EpochHook), no
// embedding computed under the old model version is ever returned — every
// post-epoch answer carries the new version and is bitwise identical to a
// direct forward with the newly trained weights.
func TestEpochInvalidationNoStaleEmbeddings(t *testing.T) {
	base := testutil.Goroutines()
	sys, model, features, targets := buildFixture(t, 31)
	n := features.Rows

	srv, err := New(sys, model, features, Config{
		QueueDepth:   n + 16,
		CacheEntries: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.OnEpochEnd(srv.EpochHook)

	// Make the version-0 memo.
	oldRows, oldVersions := queryAll(t, srv, n)
	for v := 0; v < n; v++ {
		if oldVersions[v] != 0 {
			t.Fatalf("vertex %d pre-train version %d, want 0", v, oldVersions[v])
		}
	}
	if got := srv.Stats().CacheEntries; got != n {
		t.Fatalf("memo holds %d rows after warmup, want %d", got, n)
	}

	// One training epoch; the epoch-end hook copies the weights in and bumps
	// the version, which retires the memo. (Training and serving collectives
	// must not overlap — the hook runs at the epoch boundary with none in
	// flight, which is exactly the seam this test exercises.)
	res, err := sys.Train(context.Background(), model, features, targets, dgcl.TrainOptions{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := directForward(t, sys, res.Model, features, targets)

	newRows, newVersions := queryAll(t, srv, n)
	stale := 0
	changed := false
	for v := 0; v < n; v++ {
		if newVersions[v] == 0 {
			stale++
		}
		if !rowsEqualBitwise(newRows[v], want.Row(v)) {
			t.Fatalf("vertex %d post-epoch row differs from direct forward with trained weights", v)
		}
		if !rowsEqualBitwise(newRows[v], oldRows[v]) {
			changed = true
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d post-epoch answers carried the stale model version", stale, n)
	}
	if !changed {
		t.Fatal("training an epoch changed no embedding; staleness test is vacuous")
	}
	if got := srv.Stats().ModelVersion; got == 0 {
		t.Fatal("model version not bumped by the epoch hook")
	}

	srv.Close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}

// TestQueryShedsOnRateLimit: with a one-token bucket, the second immediate
// query sheds with ErrOverload and is counted.
func TestQueryShedsOnRateLimit(t *testing.T) {
	sys, model, features, _ := buildFixture(t, 7)
	srv, err := New(sys, model, features, Config{
		RateLimit: 0.001, // ~one token per 17 minutes: no refill mid-test
		RateBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Query(context.Background(), 0); err != nil {
		t.Fatalf("first query rejected: %v", err)
	}
	if _, err := srv.Query(context.Background(), 1); !errors.Is(err, ErrOverload) {
		t.Fatalf("second query error = %v, want ErrOverload", err)
	}
	st := srv.Stats()
	if st.ShedRate != 1 {
		t.Fatalf("ShedRate = %d, want 1", st.ShedRate)
	}
}

func TestQueryRejectsOutOfRange(t *testing.T) {
	sys, model, features, _ := buildFixture(t, 7)
	srv, err := New(sys, model, features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Query(context.Background(), -1); err == nil || errors.Is(err, ErrOverload) {
		t.Fatalf("Query(-1) error = %v, want range error", err)
	}
	if _, err := srv.Query(context.Background(), features.Rows); err == nil {
		t.Fatal("Query(NumVertices) accepted")
	}
}

// TestLoadgenDirectSmoke runs the Zipf load driver against an in-process
// server and sanity-checks the report arithmetic.
func TestLoadgenDirectSmoke(t *testing.T) {
	base := testutil.Goroutines()
	sys, model, features, _ := buildFixture(t, 7)
	srv, err := New(sys, model, features, Config{
		QueueDepth:   1024,
		CacheEntries: features.Rows,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(context.Background(), LoadOptions{
		Server:      srv,
		Vertices:    features.Rows,
		Requests:    500,
		Concurrency: 8,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK+rep.Shed+rep.Failed != rep.Requests {
		t.Fatalf("report does not add up: %+v", rep)
	}
	if rep.Failed > 0 {
		t.Fatalf("%d queries failed under plain load", rep.Failed)
	}
	if rep.OK == 0 || rep.P99 == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.HitRate < 0 || rep.HitRate > 1 {
		t.Fatalf("hit rate %v outside [0,1]", rep.HitRate)
	}
	// After the version's first forward, queries read the memo.
	if rep.Cached == 0 {
		t.Fatal("no memo answers under load")
	}
	srv.Close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}

// TestServeOverTCP exercises the DGS1 listener end to end: queries over a
// real socket, stats probe, and bitwise equality with the direct forward.
func TestServeOverTCP(t *testing.T) {
	base := testutil.Goroutines()
	sys, model, features, targets := buildFixture(t, 13)
	want := directForward(t, sys, model, features, targets)
	srv, err := New(sys, model, features, Config{
		CacheEntries: features.Rows,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := listenLoopback(t)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeListener(ln) }()

	rep, err := RunLoad(context.Background(), LoadOptions{
		Addr:        ln.Addr().String(),
		Vertices:    features.Rows,
		Requests:    200,
		Concurrency: 4,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != rep.Requests {
		t.Fatalf("%d of %d TCP queries failed: %+v", rep.Requests-rep.OK, rep.Requests, rep)
	}

	// Spot-check bitwise equality through the socket path.
	q, closeConn := tcpQuerierForTest(t, ln.Addr().String())
	for _, v := range []int{0, 1, features.Rows - 1} {
		row := q(v)
		if !rowsEqualBitwise(row, want.Row(v)) {
			t.Fatalf("vertex %d over TCP differs from direct forward", v)
		}
	}
	closeConn()

	ln.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeListener: %v", err)
	}
	srv.Close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}
