package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
	"dgcl/internal/testutil"
	"dgcl/internal/topology"
)

// Socket acceptance battery (ISSUE 6): every collective result over loopback
// TCP must be bit-identical to the in-memory channel transport, the chaos
// battery must behave identically whether bytes cross a channel or a socket,
// and a mid-collective connection kill must map to the same DeviceDownError
// the fail-stop crash model produces.

// buildCluster mirrors the runtime test fixture through exported APIs:
// graph -> partition -> relation -> local graphs -> SPST plan -> cluster.
func buildCluster(t testing.TB, k int, seed int64) (*runtime.Cluster, *comm.Relation) {
	t.Helper()
	g := graph.CommunityGraph(300, 10, 4, 0.8, seed)
	p, err := partition.KWay(g, k, partition.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := core.PlanSPST(rel, topology.SubDGX1(k), 64, core.SPSTOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	c, err := runtime.NewCluster(rel, comm.BuildLocalGraphs(g, rel), plan)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 30 * time.Second
	return c, rel
}

// newFabric opens a loopback fabric whose handshake is bound to the
// cluster's compiled plan, and tears it down with the test.
func newFabric(t testing.TB, c *runtime.Cluster) *Fabric {
	t.Helper()
	f, err := NewLoopbackFabric(c.K, Config{ClusterID: "test", PlanSum: PlanDigest(c.Plan)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func randomLocals(rel *comm.Relation, k, cols int) []*tensor.Matrix {
	local := make([]*tensor.Matrix, k)
	for d := 0; d < k; d++ {
		local[d] = tensor.New(len(rel.Local[d]), cols).FillRandom(int64(d) + 1)
	}
	return local
}

func TestFabricAllgatherBitIdenticalToChan(t *testing.T) {
	before := testutil.Goroutines()
	c, rel := buildCluster(t, 4, 1)
	local := randomLocals(rel, 4, 3)
	gradFull := make([]*tensor.Matrix, 4)
	for d := 0; d < 4; d++ {
		lg := c.Locals[d]
		gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, 3).FillRandom(int64(100 + d))
	}

	wantFull, err := c.Allgather(local)
	if err != nil {
		t.Fatal(err)
	}
	wantGrads, err := c.BackwardAllgather(gradFull)
	if err != nil {
		t.Fatal(err)
	}

	fab := newFabric(t, c)
	c.Provider = fab
	for round := 0; round < 3; round++ {
		gotFull, err := c.Allgather(local)
		if err != nil {
			t.Fatalf("round %d forward over sockets: %v", round, err)
		}
		gotGrads, err := c.BackwardAllgather(gradFull)
		if err != nil {
			t.Fatalf("round %d backward over sockets: %v", round, err)
		}
		for d := 0; d < c.K; d++ {
			if diff := tensor.MaxAbsDiff(gotFull[d], wantFull[d]); diff != 0 {
				t.Fatalf("round %d GPU %d forward differs over the wire by %v", round, d, diff)
			}
			if diff := tensor.MaxAbsDiff(gotGrads[d], wantGrads[d]); diff != 0 {
				t.Fatalf("round %d GPU %d backward differs over the wire by %v", round, d, diff)
			}
		}
	}

	fab.Close()
	if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
		t.Fatalf("goroutines leaked: %d before, %d after fabric close", before, testutil.Goroutines())
	}
}

func TestFabricEpochBitIdenticalToChan(t *testing.T) {
	const cols, hidden, epochs = 8, 4, 3
	train := func(c *runtime.Cluster) ([]float64, *gnn.Model) {
		model := gnn.NewModel(gnn.GCN, cols, hidden, 2, 7)
		features := tensor.New(300, cols).FillRandom(11)
		targets := tensor.New(300, hidden).FillRandom(12)
		tr, err := runtime.NewTrainer(c, model, features, targets)
		if err != nil {
			t.Fatal(err)
		}
		losses := make([]float64, epochs)
		for e := 0; e < epochs; e++ {
			loss, err := tr.Epoch()
			if err != nil {
				t.Fatalf("epoch %d: %v", e, err)
			}
			tr.Step(0.01)
			losses[e] = loss
		}
		return losses, model
	}

	cA, _ := buildCluster(t, 4, 1)
	lossA, modelA := train(cA)

	cB, _ := buildCluster(t, 4, 1)
	cB.Provider = newFabric(t, cB)
	lossB, modelB := train(cB)

	for e := range lossA {
		if lossA[e] != lossB[e] {
			t.Fatalf("epoch %d loss diverged over the wire: %v vs %v", e, lossA[e], lossB[e])
		}
	}
	for li := range modelA.Layers {
		ap, bp := modelA.Layers[li].Params(), modelB.Layers[li].Params()
		for pi := range ap {
			for j := range ap[pi].Data {
				if ap[pi].Data[j] != bp[pi].Data[j] {
					t.Fatalf("layer %d param %d element %d differs over the wire", li, pi, j)
				}
			}
		}
	}
}

// TestFabricChaosRetriesTransparent is the PR 1 chaos battery run unchanged
// over sockets: injected drop/duplicate/corrupt/delay must stay transparent
// behind retries, with results bit-identical to the fault-free run.
func TestFabricChaosRetriesTransparent(t *testing.T) {
	c, rel := buildCluster(t, 4, 42)
	local := randomLocals(rel, 4, 3)

	wantFull, err := c.Allgather(local)
	if err != nil {
		t.Fatal(err)
	}

	c.Provider = newFabric(t, c)
	fstats := &runtime.FaultStats{}
	c.Faults = &runtime.FaultConfig{
		Seed:     7,
		Default:  runtime.FaultRates{Drop: 0.25, Duplicate: 0.1, Corrupt: 0.1, Delay: 0.05},
		MaxDelay: 200 * time.Microsecond,
		Stats:    fstats,
	}
	retry := runtime.DefaultRetryPolicy()
	retry.MaxRetries = 30
	retry.BaseBackoff = 50 * time.Microsecond
	c.Retry = &retry
	c.Stats = runtime.NewCommStats(c.K)

	for round := 0; round < 3; round++ {
		gotFull, err := c.Allgather(local)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for d := 0; d < c.K; d++ {
			if diff := tensor.MaxAbsDiff(gotFull[d], wantFull[d]); diff != 0 {
				t.Fatalf("round %d GPU %d differs under socket faults by %v", round, d, diff)
			}
		}
	}
	if fstats.Drops.Load() == 0 || fstats.Corrupts.Load() == 0 {
		t.Fatalf("chaos run injected nothing: %d drops, %d corrupts", fstats.Drops.Load(), fstats.Corrupts.Load())
	}
	if c.Stats.TotalRetries() == 0 {
		t.Fatal("faults were injected over the wire but no sends were retried")
	}
}

func TestFabricChaosExhaustedBudgetFailsStructuredAndLeakFree(t *testing.T) {
	c, rel := buildCluster(t, 4, 42)
	local := randomLocals(rel, 4, 3)
	c.Provider = newFabric(t, c)
	c.Faults = &runtime.FaultConfig{Seed: 11, Default: runtime.FaultRates{Drop: 1.0}}
	c.Retry = &runtime.RetryPolicy{
		MaxRetries:  2,
		BaseBackoff: 20 * time.Microsecond,
		MaxBackoff:  100 * time.Microsecond,
	}
	const deadline = 5 * time.Second
	c.Timeout = deadline
	c.Stats = runtime.NewCommStats(c.K)

	before := testutil.Goroutines()
	start := time.Now()
	_, err := c.Allgather(local)
	if err == nil {
		t.Fatal("total packet loss produced a successful allgather over sockets")
	}
	if elapsed := time.Since(start); elapsed >= deadline {
		t.Fatalf("failure took %v, deadline was %v", elapsed, deadline)
	}
	var ce *runtime.CollectiveError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CollectiveError", err)
	}
	var te *runtime.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("no *TransportError in the chain: %v", err)
	}
	if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
		t.Fatalf("goroutines leaked: %d before, %d after settling window", before, testutil.Goroutines())
	}
}

// killerProvider kills one fabric node the first time a transfer touches its
// device, while a collective is in flight on every client.
type killerProvider struct {
	fab  *Fabric
	dev  int
	once sync.Once
}

func (p *killerProvider) CollectiveTransport(stages [][]core.Transfer, ids []int) runtime.Transport {
	return &killerTransport{inner: p.fab.CollectiveTransport(stages, ids), p: p}
}

type killerTransport struct {
	inner runtime.Transport
	p     *killerProvider
}

func (t *killerTransport) Unwrap() runtime.Transport { return t.inner }

func (t *killerTransport) Send(ctx context.Context, key runtime.TransferKey, tr core.Transfer, msg runtime.Message) error {
	if tr.Src == t.p.dev || tr.Dst == t.p.dev {
		t.p.once.Do(func() { t.p.fab.Kill(t.p.dev) })
	}
	return t.inner.Send(ctx, key, tr, msg)
}

func (t *killerTransport) Recv(ctx context.Context, key runtime.TransferKey, tr core.Transfer) (runtime.Message, error) {
	return t.inner.Recv(ctx, key, tr)
}

// TestFabricMidCollectiveKillMapsToDeviceDown hard-closes one node's sockets
// while a collective is mid-flight: every affected client must surface a
// DeviceDownError naming the dead device — the same verdict the in-process
// fail-stop crash model produces — and no goroutine may be left blocked.
func TestFabricMidCollectiveKillMapsToDeviceDown(t *testing.T) {
	const dead = 1
	before := testutil.Goroutines()
	c, rel := buildCluster(t, 4, 42)
	local := randomLocals(rel, 4, 3)
	fab := newFabric(t, c)
	c.Provider = &killerProvider{fab: fab, dev: dead}
	c.Health = runtime.NewHealthTracker(1, runtime.CrashConfig{})
	c.Timeout = 10 * time.Second

	_, err := c.Allgather(local)
	if err == nil {
		t.Fatal("collective succeeded across a killed connection")
	}
	if !errors.Is(err, runtime.ErrDeviceDown) {
		t.Fatalf("error does not unwrap to ErrDeviceDown: %v", err)
	}
	var dde *runtime.DeviceDownError
	if !errors.As(err, &dde) || dde.Device != dead {
		t.Fatalf("no DeviceDownError naming device %d in chain: %v", dead, err)
	}
	var ce *runtime.CollectiveError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CollectiveError", err)
	}
	found := false
	for _, d := range ce.Down {
		if d == dead {
			found = true
		}
	}
	if !found {
		t.Fatalf("CollectiveError.Down = %v, does not name device %d", ce.Down, dead)
	}

	fab.Close()
	if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
		t.Fatalf("goroutines leaked after kill: %d before, %d after", before, testutil.Goroutines())
	}
}

// twoNodes stands up a 2-process-shaped mesh (each node hosting two ranks)
// through the same NewNode/Connect path a real worker uses.
func twoNodes(t *testing.T, cfg0, cfg1 Config) (*Node, *Node, []error) {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := NewNode(cfg0, 0, ln0), NewNode(cfg1, 1, ln1)
	t.Cleanup(func() { n0.Close(); n1.Close() })
	specs := []NodeSpec{
		{Addr: ln0.Addr().String(), Ranks: []int{0, 1}},
		{Addr: ln1.Addr().String(), Ranks: []int{2, 3}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, n := range []*Node{n0, n1} {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			errs[i] = n.Connect(ctx, specs)
		}(i, n)
	}
	wg.Wait()
	return n0, n1, errs
}

func TestNodeExchanges(t *testing.T) {
	cfg := Config{ClusterID: "ex", PlanSum: 5}
	n0, n1, errs := twoNodes(t, cfg, cfg)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	runErrs := make([]error, 2)
	f0 := []float64{0.5, 1.0 / 3.0, 0, 0}
	f1 := []float64{0, 0, -2.25, 1e-17}
	m0 := []*tensor.Matrix{tensor.New(2, 3).FillRandom(1), tensor.New(2, 3).FillRandom(2), tensor.New(2, 3), tensor.New(2, 3)}
	m1 := []*tensor.Matrix{tensor.New(2, 3), tensor.New(2, 3), tensor.New(2, 3).FillRandom(3), tensor.New(2, 3).FillRandom(4)}
	want := []*tensor.Matrix{m0[0], m0[1], m1[2], m1[3]}
	wantCopy := make([]*tensor.Matrix, len(want))
	for i, m := range want {
		wantCopy[i] = tensor.New(m.Rows, m.Cols)
		copy(wantCopy[i].Data, m.Data)
	}

	run := func(i int, n *Node, local []int, fs []float64, ms []*tensor.Matrix) {
		defer wg.Done()
		if err := n.ExchangeFloat64s(ctx, "loss", local, fs); err != nil {
			runErrs[i] = err
			return
		}
		runErrs[i] = n.ExchangeMatrices(ctx, "grad.0.0", local, ms)
	}
	wg.Add(2)
	go run(0, n0, []int{0, 1}, f0, m0)
	go run(1, n1, []int{2, 3}, f1, m1)
	wg.Wait()
	if err := errors.Join(runErrs...); err != nil {
		t.Fatal(err)
	}

	wantF := []float64{0.5, 1.0 / 3.0, -2.25, 1e-17}
	for i := range wantF {
		if f0[i] != wantF[i] || f1[i] != wantF[i] {
			t.Fatalf("float64 exchange slot %d: node0 %v node1 %v want %v (bits must survive exactly)", i, f0[i], f1[i], wantF[i])
		}
	}
	for r := 0; r < 4; r++ {
		if diff := tensor.MaxAbsDiff(m0[r], wantCopy[r]); diff != 0 {
			t.Fatalf("node0 matrix slot %d differs by %v", r, diff)
		}
		if diff := tensor.MaxAbsDiff(m1[r], wantCopy[r]); diff != 0 {
			t.Fatalf("node1 matrix slot %d differs by %v", r, diff)
		}
	}
}

func TestHandshakeRejectsStrangers(t *testing.T) {
	cases := []struct {
		name       string
		cfg0, cfg1 Config
	}{
		{"cluster id", Config{ClusterID: "a", PlanSum: 1}, Config{ClusterID: "b", PlanSum: 1}},
		{"plan digest", Config{ClusterID: "a", PlanSum: 1}, Config{ClusterID: "a", PlanSum: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, errs := twoNodes(t, tc.cfg0, tc.cfg1)
			if errs[0] == nil && errs[1] == nil {
				t.Fatalf("mismatched %s formed a mesh", tc.name)
			}
		})
	}
}

// TestWireSteadyStateAllocs pins the serialization path's allocation
// behavior: once the pools are warm, the per-collective allocation count must
// not scale with the payload size (buffers come from the size-classed pools,
// not the heap), and must stay under an absolute budget.
func TestWireSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, rel := buildCluster(t, 4, 1)
	c.Provider = newFabric(t, c)
	small := randomLocals(rel, 4, 4)
	large := randomLocals(rel, 4, 32)
	for i := 0; i < 2; i++ {
		if _, err := c.Allgather(small); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Allgather(large); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(local []*tensor.Matrix) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Allgather(local); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs, largeAllocs := measure(small), measure(large)
	if largeAllocs > smallAllocs*1.3+32 {
		t.Fatalf("allocations scale with payload size: %v at 4 cols, %v at 32 cols — serialization is not pooled", smallAllocs, largeAllocs)
	}
	if largeAllocs > 2000 {
		t.Fatalf("steady-state wire collective allocates %v times, budget 2000", largeAllocs)
	}
}

// TestFabricCreditWindowRefillsWhenIdle: a reader pays its owed credits back
// whenever its read buffer runs dry, not only at half-window, so once the
// collectives over a 2-node fabric go idle every link's window is full
// again. A reader that paid only at half-window would keep up to
// creditWindow/2-1 credits per link for good, and its peer would run every
// later collective on a shrunken window.
func TestFabricCreditWindowRefillsWhenIdle(t *testing.T) {
	c, rel := buildCluster(t, 2, 1)
	f := newFabric(t, c)
	c.Provider = f
	local := randomLocals(rel, 2, 4)
	if _, err := c.Allgather(local); err != nil {
		t.Fatal(err)
	}
	gradFull := make([]*tensor.Matrix, 2)
	for d := range gradFull {
		lg := c.Locals[d]
		gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, 4).FillRandom(int64(d) + 9)
	}
	if _, err := c.BackwardAllgather(gradFull); err != nil {
		t.Fatal(err)
	}
	// Credit frames travel after the collective returns; wait for them,
	// bounded.
	deadline := time.Now().Add(5 * time.Second)
	for {
		short := 0
		for _, n := range f.nodes {
			for _, l := range n.links {
				short += creditWindow - len(l.credits)
			}
		}
		if short == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d credits still unreturned across the fabric's links after the collectives went idle", short)
		}
		time.Sleep(time.Millisecond)
	}
}
