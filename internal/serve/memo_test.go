package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgcl"
	"dgcl/internal/testutil"
)

// perturbed returns a copy of m with every weight changed, same shape.
func perturbed(m *dgcl.Model) *dgcl.Model {
	out := m.Clone()
	for _, l := range out.Layers {
		for _, p := range l.Params() {
			for i := range p.Data {
				p.Data[i] = p.Data[i]*0.5 + 0.01
			}
		}
	}
	return out
}

// TestVersionLabelMatchesRowUnderConcurrentUpdates pins that an answer's
// version names the weights its row was computed with: one goroutine
// alternates UpdateModel between models A and B while four query, and every
// answer must be bitwise equal to the direct forward of its version's model.
// No answer may be older than the last UpdateModel that returned before its
// query was issued: a miss must never join a flight whose version is retired.
func TestVersionLabelMatchesRowUnderConcurrentUpdates(t *testing.T) {
	base := testutil.Goroutines()
	sys, modelA, features, targets := buildFixture(t, 17)
	modelB := perturbed(modelA)
	n := features.Rows
	want := [2]*dgcl.Matrix{
		directForward(t, sys, modelA, features, targets),
		directForward(t, sys, modelB, features, targets),
	}
	if rowsEqualBitwise(want[0].Data, want[1].Data) {
		t.Fatal("models A and B forward to the same embeddings; the test is vacuous")
	}
	srv, err := New(sys, modelA, features, Config{
		QueueDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Version k serves model A for even k, B for odd k: New starts at 0
	// with A, and update i (from 1) installs B for odd i, A for even i.
	const updates = 40
	var answers, wrong, failed, older atomic.Int64
	var updated atomic.Uint64 // the version of the last UpdateModel that returned
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				v := rng.Intn(n)
				floor := updated.Load()
				res, err := srv.Query(context.Background(), v)
				if err != nil {
					failed.Add(1)
					continue
				}
				answers.Add(1)
				if !rowsEqualBitwise(res.Row, want[res.Version%2].Row(v)) {
					wrong.Add(1)
				}
				if res.Version < floor {
					older.Add(1)
				}
			}
		}(int64(w))
	}
	models := [2]*dgcl.Model{modelA, modelB}
	for i := 1; i <= updates; i++ {
		if err := srv.UpdateModel(models[i%2]); err != nil {
			t.Errorf("UpdateModel %d: %v", i, err)
			break
		}
		updated.Store(uint64(i))
		time.Sleep(time.Millisecond) // let each version answer some queries
	}
	close(done)
	wg.Wait()

	if got := wrong.Load(); got != 0 {
		t.Fatalf("%d of %d answers differ from the direct forward of the model their version names", got, answers.Load())
	}
	if got := older.Load(); got != 0 {
		t.Fatalf("%d of %d answers carry a version older than an UpdateModel that returned before their query", got, answers.Load())
	}
	if got := failed.Load(); got != 0 {
		t.Fatalf("%d queries failed", got)
	}
	st := srv.Stats()
	if st.ModelVersion != updates || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("implausible stats after %d updates: version %d, %d hits, %d misses", updates, st.ModelVersion, st.Hits, st.Misses)
	}
	srv.Close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}

// TestUpdateModelRejectsOtherShape: a model of another kind, depth or width
// is refused and leaves the served version and answers untouched, while
// EpochHook's failure path still mints a new version (over the old weights).
func TestUpdateModelRejectsOtherShape(t *testing.T) {
	sys, model, features, targets := buildFixture(t, 19)
	n := features.Rows
	want := directForward(t, sys, model, features, targets)
	srv, err := New(sys, model, features, Config{QueueDepth: n + 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	queryAll(t, srv, n)

	in := features.Cols
	otherKind := dgcl.CommNet
	if model.Kind == otherKind {
		otherKind = dgcl.GCN
	}
	narrower := dgcl.NewModel(model.Kind, in, 4, 2, 1)
	for name, m := range map[string]*dgcl.Model{
		"nil":      nil,
		"kind":     dgcl.NewModel(otherKind, in, 8, 2, 1),
		"depth":    dgcl.NewModel(model.Kind, in, 8, 3, 1),
		"width":    narrower,
		"in width": dgcl.NewModel(model.Kind, in+1, 8, 2, 1),
	} {
		if err := srv.UpdateModel(m); err == nil {
			t.Fatalf("UpdateModel accepted a model differing in %s", name)
		}
	}
	if st := srv.Stats(); st.ModelVersion != 0 || st.CacheEntries != n {
		t.Fatalf("refused updates moved the server: version %d, memo rows %d", st.ModelVersion, st.CacheEntries)
	}
	check := func(wantVersion uint64) {
		t.Helper()
		rows, versions := queryAll(t, srv, n)
		for v := 0; v < n; v++ {
			if versions[v] != wantVersion || !rowsEqualBitwise(rows[v], want.Row(v)) {
				t.Fatalf("vertex %d: version %d (want %d) or row differs from the served model's forward", v, versions[v], wantVersion)
			}
		}
	}
	check(0)

	srv.EpochHook(0, narrower)
	if got := srv.Stats().ModelVersion; got != 1 {
		t.Fatalf("EpochHook with a refused model left version %d, want 1", got)
	}
	check(1)
}

// TestServeAfterTrainCrashRebuilds: System.Train loses a device and degrades
// the system while the server's EpochHook copies each epoch's weights in.
// The next forward must notice the replaced cluster and rebuild its trainer
// (no serve-path failover is needed), and every served row must be bitwise
// equal to a direct forward of the trained model on the degraded system.
func TestServeAfterTrainCrashRebuilds(t *testing.T) {
	base := testutil.Goroutines()
	sys, model, features, targets := buildFixture(t, 29)
	n := features.Rows
	srv, err := New(sys, model, features, Config{QueueDepth: n + 16})
	if err != nil {
		t.Fatal(err)
	}
	sys.OnEpochEnd(srv.EpochHook)
	queryAll(t, srv, n) // layer 0 aggregated on the full cluster

	if err := sys.SetRunOptions(dgcl.RunOptions{
		Crash: &dgcl.CrashConfig{Events: []dgcl.CrashEvent{{Device: 1, Epoch: 2, Stage: 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Train(context.Background(), model, features, targets, dgcl.TrainOptions{Epochs: 4})
	if err != nil {
		t.Fatalf("crashed run did not recover: %v", err)
	}
	if len(res.Recoveries) != 1 || len(sys.AliveDevices()) != 3 {
		t.Fatalf("recoveries %+v, alive %v: want one recovery onto 3 devices", res.Recoveries, sys.AliveDevices())
	}

	want := directForward(t, sys, res.Model, features, targets)
	rows, versions := queryAll(t, srv, n)
	ver := srv.Stats().ModelVersion
	for v := 0; v < n; v++ {
		if versions[v] != ver {
			t.Fatalf("vertex %d served version %d, want %d", v, versions[v], ver)
		}
		if !rowsEqualBitwise(rows[v], want.Row(v)) {
			t.Fatalf("vertex %d differs from the trained model's forward on the degraded system", v)
		}
	}
	if tr := srv.Stats().Transitions; len(tr) != 0 {
		t.Fatalf("serve path failed over %+v; the forward should have rebuilt over the degraded cluster first", tr)
	}
	srv.Close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatal("goroutines leaked")
	}
}

// TestMemoQueryAllocatesNothing: once the version's forward has run, a
// query (no rate limit) reads its row from the memo without allocating.
func TestMemoQueryAllocatesNothing(t *testing.T) {
	sys, model, features, _ := buildFixture(t, 7)
	srv, err := New(sys, model, features, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.Query(ctx, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if res, err := srv.Query(ctx, 1); err != nil || !res.Cached {
			t.Fatalf("memo query: cached %v, err %v", res.Cached, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a memo query allocates %v times, want 0", allocs)
	}
}

// TestMemoDisabledForwardsEveryQuery: CacheEntries < 0 sends every query
// through a forward, still bit-identical to the direct forward.
func TestMemoDisabledForwardsEveryQuery(t *testing.T) {
	sys, model, features, targets := buildFixture(t, 13)
	want := directForward(t, sys, model, features, targets)
	srv, err := New(sys, model, features, Config{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var forwards uint64
	for i, v := range []int{0, 1, 0, features.Rows - 1, 1} {
		res, err := srv.Query(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || !rowsEqualBitwise(res.Row, want.Row(v)) {
			t.Fatalf("query %d (vertex %d): cached %v, or row differs from the direct forward", i, v, res.Cached)
		}
		st := srv.Stats()
		if st.Flushes != forwards+1 || st.Hits != 0 || st.CacheEntries != 0 {
			t.Fatalf("query %d: forwards %d (was %d), hits %d, memo rows %d", i, st.Flushes, forwards, st.Hits, st.CacheEntries)
		}
		forwards = st.Flushes
	}
}
