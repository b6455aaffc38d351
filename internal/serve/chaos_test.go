package serve

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgcl"
	"dgcl/internal/comm/wire"
	"dgcl/internal/testutil"
)

// TestServeSurvivesDeviceKillMidLoad is the chaos half of the battery: with
// the loopback TCP fabric as the base transport, one device's sockets die
// for real while a query load is in flight. Until the next model version the
// memo answers every query without a collective, so the kill fails nothing
// and the answers stay the pre-kill rows. A model refresh mid-load then
// forces a forward: the server must detect the death from it, degrade onto
// the survivors via System.Degrade, mint a new version, record the
// transition in its stats, and keep answering — bitwise identical to a
// direct forward on the degraded cluster and within a tight band of the
// pre-kill embeddings — without a restart, a leak, or a race.
func TestServeSurvivesDeviceKillMidLoad(t *testing.T) {
	base := testutil.Goroutines()
	sys, model, features, targets := buildFixture(t, 11)
	n := features.Rows

	fab, err := wire.NewLoopbackFabric(4, wire.Config{
		ClusterID: "dgcl-serve-chaos",
		PlanSum:   wire.PlanDigest(sys.Plan()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	if err := sys.SetRunOptions(dgcl.RunOptions{Transport: fab, DownAfter: 1}); err != nil {
		t.Fatal(err)
	}

	srv, err := New(sys, model, features, Config{
		QueueDepth: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-kill ground truth from the healthy 4-device fabric.
	preRows, preVersions := queryAll(t, srv, n)
	for v := 0; v < n; v++ {
		if preVersions[v] != 0 {
			t.Fatalf("vertex %d pre-kill version %d, want 0", v, preVersions[v])
		}
	}

	// Background load over the whole vertex range. phase is 0 before the
	// kill, 1 from the kill until the refresh starts, 2 after. A query that
	// starts and ends in phase 1 must be answered at version 0 with the
	// pre-kill row; so must any answer labelled version 0.
	var phase atomic.Int32
	var failed, betweenAnswers, betweenWrong, staleWrong atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopLoad := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopLoad() // a t.Fatalf below still stops the load
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := rng.Intn(n)
				before := phase.Load()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := srv.Query(ctx, v)
				cancel()
				if err != nil {
					failed.Add(1)
					continue
				}
				if res.Version == 0 && !rowsEqualBitwise(res.Row, preRows[v]) {
					staleWrong.Add(1)
				}
				if before == 1 && phase.Load() == 1 {
					betweenAnswers.Add(1)
					if res.Version != 0 {
						betweenWrong.Add(1)
					}
				}
			}
		}(int64(w))
	}

	// Let the load establish itself, then node 1's sockets die for real.
	time.Sleep(20 * time.Millisecond)
	phase.Store(1)
	fab.Kill(1)
	waitFor(t, "answers between the kill and the refresh", func() bool { return betweenAnswers.Load() >= 100 })

	// The refresh retires the version-0 memo; the next miss runs a forward
	// that touches device 1 and must trip the failover.
	phase.Store(2)
	if err := srv.UpdateModel(model); err != nil {
		t.Fatalf("UpdateModel after the kill: %v", err)
	}
	waitFor(t, "a failover transition", func() bool { return len(srv.Stats().Transitions) > 0 })
	// Keep serving a beat on the degraded fabric before stopping the load.
	time.Sleep(50 * time.Millisecond)
	stopLoad()

	if got := betweenWrong.Load(); got != 0 {
		t.Fatalf("%d answers between the kill and the refresh carried a version other than 0", got)
	}
	if got := staleWrong.Load(); got != 0 {
		t.Fatalf("%d version-0 answers differ from the pre-kill rows", got)
	}
	st := srv.Stats()
	if len(st.Transitions) != 1 {
		t.Fatalf("transitions = %+v, want exactly one", st.Transitions)
	}
	tr := st.Transitions[0]
	if !reflect.DeepEqual(tr.Down, []int{1}) {
		t.Fatalf("transition removed %v, want [1]", tr.Down)
	}
	if !reflect.DeepEqual(tr.Survivors, []int{0, 2, 3}) {
		t.Fatalf("transition survivors = %v, want [0 2 3]", tr.Survivors)
	}
	if tr.Version == 0 {
		t.Fatal("transition did not mint a new model version")
	}
	if !reflect.DeepEqual(sys.AliveDevices(), []int{0, 2, 3}) {
		t.Fatalf("alive devices = %v, want [0 2 3]", sys.AliveDevices())
	}
	if got := failed.Load(); got != 0 {
		t.Fatalf("%d queries failed across the kill and the failover; the memo and the failover retry should answer all of them", got)
	}

	// Post-kill answers come from the degraded replica: bitwise identical
	// to a direct forward on the degraded cluster, under the new version.
	want := directForward(t, sys, model, features, targets)
	postRows, postVersions := queryAll(t, srv, n)
	for v := 0; v < n; v++ {
		if postVersions[v] != tr.Version {
			t.Fatalf("vertex %d post-kill version %d, want %d", v, postVersions[v], tr.Version)
		}
		if !rowsEqualBitwise(postRows[v], want.Row(v)) {
			t.Fatalf("vertex %d post-kill row differs from degraded direct forward", v)
		}
	}

	// Quality band: the degraded partition reorders float32 reductions but
	// must not change the math — pre- and post-kill embeddings agree to a
	// tight relative Frobenius tolerance.
	var num, den float64
	for v := 0; v < n; v++ {
		for i := range preRows[v] {
			d := float64(postRows[v][i]) - float64(preRows[v][i])
			num += d * d
			den += float64(preRows[v][i]) * float64(preRows[v][i])
		}
	}
	if den == 0 {
		t.Fatal("pre-kill embeddings are all zero; band check is vacuous")
	}
	if rel := math.Sqrt(num / den); rel > 1e-4 {
		t.Fatalf("degraded embeddings drifted: relative Frobenius diff %v > 1e-4", rel)
	}

	srv.Close()
	fab.Close()
	if !testutil.GoroutinesSettleTo(base, 5*time.Second) {
		t.Fatalf("goroutines leaked across the kill: %d before, %d after", base, testutil.Goroutines())
	}
}

// waitFor polls cond until it holds, failing the test after 30s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 30s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
