package runtime

import (
	"errors"
	"testing"
	"time"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
	"dgcl/internal/testutil"
)

// Chaos battery: under injected faults the collectives must be either
// transparent (retries recover, results bit-identical to the fault-free
// run) or cleanly fatal (budget exhausted -> structured per-GPU errors
// before the deadline, no goroutine leaks). There is no third outcome:
// never a hang, never silently corrupted data.

func chaosCluster(t *testing.T) (*Cluster, []*tensor.Matrix, []*tensor.Matrix) {
	t.Helper()
	g := graph.CommunityGraph(300, 10, 4, 0.8, 42)
	c, rel := setup(t, g, 4, 42, 64)
	cols := 3
	local := make([]*tensor.Matrix, 4)
	gradFull := make([]*tensor.Matrix, 4)
	for d := 0; d < 4; d++ {
		local[d] = tensor.New(len(rel.Local[d]), cols).FillRandom(int64(d))
		lg := c.Locals[d]
		gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, cols).FillRandom(int64(100 + d))
	}
	return c, local, gradFull
}

func TestChaosRetriesMakeFaultsTransparent(t *testing.T) {
	c, local, gradFull := chaosCluster(t)

	// Fault-free baselines.
	wantFull, err := c.Allgather(local)
	if err != nil {
		t.Fatal(err)
	}
	wantGrads, err := c.BackwardAllgather(gradFull)
	if err != nil {
		t.Fatal(err)
	}

	// Heavy but recoverable chaos: every fault kind fires, the retry budget
	// comfortably exceeds the worst losing streak.
	fstats := &FaultStats{}
	c.Faults = &FaultConfig{
		Seed:     7,
		Default:  FaultRates{Drop: 0.25, Duplicate: 0.1, Corrupt: 0.1, Delay: 0.05},
		MaxDelay: 200 * time.Microsecond,
		Stats:    fstats,
	}
	retry := DefaultRetryPolicy()
	retry.MaxRetries = 30
	retry.BaseBackoff = 50 * time.Microsecond
	c.Retry = &retry
	c.Timeout = 30 * time.Second
	c.Stats = NewCommStats(c.K)

	for round := 0; round < 3; round++ {
		gotFull, err := c.Allgather(local)
		if err != nil {
			t.Fatalf("round %d forward: %v", round, err)
		}
		gotGrads, err := c.BackwardAllgather(gradFull)
		if err != nil {
			t.Fatalf("round %d backward: %v", round, err)
		}
		for d := 0; d < c.K; d++ {
			// Retransmission carries the same bytes: results are
			// bit-identical to the fault-free run, not merely close.
			if diff := tensor.MaxAbsDiff(gotFull[d], wantFull[d]); diff != 0 {
				t.Fatalf("round %d GPU %d forward differs under faults by %v", round, d, diff)
			}
			if diff := tensor.MaxAbsDiff(gotGrads[d], wantGrads[d]); diff != 0 {
				t.Fatalf("round %d GPU %d backward differs under faults by %v", round, d, diff)
			}
		}
	}
	if fstats.Drops.Load() == 0 {
		t.Fatal("chaos run injected no drops; the test exercised nothing")
	}
	if c.Stats.TotalRetries() == 0 {
		t.Fatal("drops were injected but no sends were retried")
	}
}

// participants returns which GPUs appear as an endpoint of any planned
// transfer; only they can fail (a GPU with no traffic finishes trivially).
func participants(c *Cluster) []bool {
	in := make([]bool, c.K)
	for _, st := range c.Plan.Stages {
		for _, tr := range st {
			in[tr.Src] = true
			in[tr.Dst] = true
		}
	}
	return in
}

func TestChaosExhaustedBudgetFailsStructuredAndLeakFree(t *testing.T) {
	c, local, _ := chaosCluster(t)

	// Beyond-budget faults: every send drops, the budget is tiny, receives
	// time out fast. The collective must fail on every participating GPU
	// well inside the deadline.
	c.Faults = &FaultConfig{Seed: 11, Default: FaultRates{Drop: 1.0}}
	c.Retry = &RetryPolicy{
		MaxRetries:  2,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  100 * time.Microsecond,
	}
	const deadline = 5 * time.Second
	c.Timeout = deadline
	c.Stats = NewCommStats(c.K)

	before := testutil.Goroutines()
	start := time.Now()
	_, err := c.Allgather(local)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("total packet loss produced a successful allgather")
	}
	if elapsed >= deadline {
		t.Fatalf("failure took %v, deadline was %v", elapsed, deadline)
	}

	var ce *CollectiveError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CollectiveError", err)
	}
	in := participants(c)
	for d, perr := range ce.PerGPU {
		if in[d] && perr == nil {
			t.Errorf("GPU %d participates in the plan but reported no error", d)
		}
	}
	// Each per-GPU failure unwraps to the structured transport error with
	// the exhausted attempt count or a receive timeout.
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("no *TransportError in the chain: %v", err)
	}
	if te.Op == "send" && !errors.Is(te, ErrDropped) {
		t.Fatalf("send failure does not unwrap to ErrDropped: %v", te)
	}

	// All client goroutines must wind down: no one may block forever on a
	// channel whose sender gave up.
	if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
		t.Fatalf("goroutines leaked: %d before, %d after settling window", before, testutil.Goroutines())
	}
	if c.Stats.TotalRetries() == 0 && c.Stats.TotalTimeouts() == 0 {
		t.Fatal("failed collective recorded neither retries nor timeouts")
	}
}
