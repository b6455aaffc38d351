package simnet

import (
	"math"
	"testing"

	"dgcl/internal/baselines"
	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/topology"
)

func exactNet(t testing.TB, topo *topology.Topology) *Network {
	t.Helper()
	n, err := New(topo, Config{Seed: 1, Jitter: 0, ContentionExponent: 1, LatencyScale: 0, AtomicFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSingleFlowMatchesTableOne(t *testing.T) {
	// A lone 1 GB transfer over each link class achieves the Table 1 speed
	// (within latency epsilon).
	n := exactNet(t, topology.DGX1())
	cases := []struct {
		src, dst int
		want     float64
	}{
		{0, 3, topology.NV2.Bandwidth()},
		{0, 1, topology.NV1.Bandwidth()},
		{0, 5, topology.QPI.Bandwidth()}, // cross-socket bottleneck
	}
	for _, c := range cases {
		bw, err := n.MeasureFlows([][2]int{{c.src, c.dst}}, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bw[0]-c.want)/c.want > 0.01 {
			t.Errorf("flow %d->%d bandwidth %.3g want %.3g", c.src, c.dst, bw[0], c.want)
		}
	}
}

func TestTableThreeQPIContention(t *testing.T) {
	// Table 3: attainable per-GPU bandwidth over QPI with 1/2/3 concurrent
	// GPUs is 9.50 / 5.12 / 3.34 GB/s. With the calibrated contention
	// exponent the simulator reproduces those numbers within 10%.
	n, err := New(topology.DGX1(), Config{Seed: 1, Jitter: 0, ContentionExponent: 0.95, LatencyScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	// GPU pairs crossing QPI with no NVLink: 0->5, 1->4, 2->4.
	pairs := [][2]int{{0, 5}, {1, 4}, {2, 4}}
	want := []float64{9.50e9, 5.12e9, 3.34e9}
	for k := 1; k <= 3; k++ {
		bws, err := n.MeasureFlows(pairs[:k], 1<<28)
		if err != nil {
			t.Fatal(err)
		}
		got := bws[0]
		if math.Abs(got-want[k-1])/want[k-1] > 0.10 {
			t.Errorf("%d concurrent flows: per-flow bw %.3g want %.3g", k, got, want[k-1])
		}
	}
}

func TestContendingFlowsSlowerThanLone(t *testing.T) {
	n, err := New(topology.DGX1(), DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	lone, _ := n.MeasureFlows([][2]int{{0, 5}}, 1<<26)
	three, _ := n.MeasureFlows([][2]int{{0, 5}, {1, 4}, {2, 4}}, 1<<26)
	if three[0] >= lone[0] {
		t.Fatalf("contended flow %.3g not slower than lone %.3g", three[0], lone[0])
	}
}

func TestDisjointFlowsRunInParallel(t *testing.T) {
	// Two NVLink flows on disjoint links finish in the time of one.
	n := exactNet(t, topology.DGX1())
	p := core.NewPlan(8, 1024, "t")
	vs := make([]int32, 1000)
	p.Stages = [][]core.Transfer{{
		{Src: 0, Dst: 3, Vertices: vs},
		{Src: 4, Dst: 7, Vertices: vs},
	}}
	res, err := n.RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 1024 * 1000 / topology.NV2.Bandwidth()
	if math.Abs(res.Time-want)/want > 0.01 {
		t.Fatalf("parallel stage time %.4g want %.4g", res.Time, want)
	}
}

func TestStagesAreSequential(t *testing.T) {
	n := exactNet(t, topology.DGX1())
	vs := make([]int32, 1000)
	p := core.NewPlan(8, 1024, "t")
	p.Stages = [][]core.Transfer{
		{{Src: 0, Dst: 3, Vertices: vs}},
		{{Src: 3, Dst: 7, Vertices: vs}},
	}
	res, err := n.RunPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	single := 1024 * 1000 / topology.NV2.Bandwidth()
	wantLow := single + 1000*1024/topology.NV1.Bandwidth()
	if res.Time < wantLow*0.99 {
		t.Fatalf("sequential stages time %.4g below sum %.4g", res.Time, wantLow)
	}
	if len(res.StageTimes) != 2 {
		t.Fatalf("stage times = %v", res.StageTimes)
	}
}

func TestSimulatorAgreesWithCostModel(t *testing.T) {
	// With contention exponent 1, zero jitter and zero latency, the
	// simulator must closely match the analytic §5.1 cost model on real
	// SPST plans (Figure 10's linearity, at its exact limit).
	g := graph.CommunityGraph(1200, 20, 8, 0.8, 2)
	p, err := partition.KWay(g, 8, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.DGX1()
	plan, state, err := core.PlanSPST(rel, topo, 1024, core.SPSTOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := exactNet(t, topo)
	res, err := n.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Time-state.Cost())/state.Cost() > 0.05 {
		t.Fatalf("simulated %.4g vs modeled %.4g diverge >5%%", res.Time, state.Cost())
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	topo := topology.DGX1()
	mk := func() float64 {
		n, err := New(topo, DefaultConfig(42))
		if err != nil {
			t.Fatal(err)
		}
		vs := make([]int32, 500)
		p := core.NewPlan(8, 1024, "t")
		p.Stages = [][]core.Transfer{{{Src: 0, Dst: 3, Vertices: vs}}}
		res, err := n.RunPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if mk() != mk() {
		t.Fatal("same seed must give same simulated time")
	}
}

func TestBackwardAtomicSlowerThanNonAtomic(t *testing.T) {
	// Table 9: non-atomic aggregation reduces backward allgather time.
	g := graph.CommunityGraph(1500, 24, 8, 0.75, 3)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 3})
	rel, _ := comm.Build(g, p)
	topo := topology.DGX1()
	// Realistic embedding volume (hidden dim 128 x 4 bytes would be 512;
	// use a larger feature so bandwidth dominates latency as on the paper's
	// full-size Reddit graph).
	plan, _, err := core.PlanSPST(rel, topo, 32768, core.SPSTOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(topo, Config{Seed: 3, Jitter: 0, ContentionExponent: 0.95, LatencyScale: 1, AtomicFactor: 1.35})
	if err != nil {
		t.Fatal(err)
	}
	atomic, err := n.RunBackward(plan, false)
	if err != nil {
		t.Fatal(err)
	}
	nonAtomic, err := n.RunBackward(plan, true)
	if err != nil {
		t.Fatal(err)
	}
	if nonAtomic.Time >= atomic.Time {
		t.Fatalf("non-atomic %.4g should beat atomic %.4g", nonAtomic.Time, atomic.Time)
	}
}

// TestBackwardPricesTheReversedForward pins that backward is priced as the
// schedule the runtime runs: the forward stages reversed and unsplit, even
// where three senders return one vertex's gradient to GPU 0 (the fan-in
// §6.2's sub-stage split would serialize). The atomic flavour differs only
// by AtomicFactor on the bytes.
func TestBackwardPricesTheReversedForward(t *testing.T) {
	n, err := New(topology.DGX1(), Config{Seed: 1, Jitter: 0, ContentionExponent: 0.95, LatencyScale: 1, AtomicFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPlan(4, 4096, "t")
	p.Stages = [][]core.Transfer{{
		{Src: 0, Dst: 1, Vertices: []int32{1}}, {Src: 0, Dst: 2, Vertices: []int32{1}},
		{Src: 0, Dst: 3, Vertices: []int32{1}}, {Src: 1, Dst: 2, Vertices: []int32{5}},
	}}
	for _, c := range []struct {
		nonAtomic bool
		factor    int64
	}{{true, 1}, {false, 2}} {
		q := *p
		q.Stages, q.BytesPerVertex = p.BackwardSchedule(), c.factor*p.BytesPerVertex
		want, err := n.RunPlan(&q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.RunBackward(p, c.nonAtomic)
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != want.Time || got.BytesMoved*c.factor != want.BytesMoved || got.Flows != want.Flows {
			t.Errorf("non-atomic %v: RunBackward = {%.6g s, %d B, %d flows}, reversed forward at x%d bytes = {%.6g s, %d B, %d flows}",
				c.nonAtomic, got.Time, got.BytesMoved, got.Flows, c.factor, want.Time, want.BytesMoved, want.Flows)
		}
	}
}

func TestCentralizedCoordinationSlower(t *testing.T) {
	g := graph.CommunityGraph(400, 10, 4, 0.8, 4)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 4})
	rel, _ := comm.Build(g, p)
	topo := topology.DGX1()
	plan, _, _ := core.PlanSPST(rel, topo, 64, core.SPSTOptions{Seed: 4})
	dec, _ := New(topo, Config{Seed: 4, Jitter: 0, ContentionExponent: 1, LatencyScale: 1})
	cen, _ := New(topo, Config{Seed: 4, Jitter: 0, ContentionExponent: 1, LatencyScale: 1, Centralized: true})
	rd, err := dec.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cen.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Time <= rd.Time {
		t.Fatalf("centralized %.4g should be slower than decentralized %.4g", rc.Time, rd.Time)
	}
}

func TestRunSwap(t *testing.T) {
	g := graph.CommunityGraph(800, 16, 6, 0.8, 5)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 5})
	rel, _ := comm.Build(g, p)
	topo := topology.DGX1()
	sp, err := baselines.PlanSwap(rel, topo, 1024)
	if err != nil {
		t.Fatal(err)
	}
	n := exactNet(t, topo)
	res, err := n.RunSwap(sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.BytesMoved == 0 {
		t.Fatalf("swap result %+v", res)
	}
	// Swap must move at least the full vertex set once.
	if res.BytesMoved < int64(g.NumVertices())*1024 {
		t.Fatalf("swap moved %d bytes, expected at least full dump", res.BytesMoved)
	}
}

func TestSwapSlowerThanSPSTPlanOnSparse(t *testing.T) {
	g := graph.WikiTalk.Generate(512, 6)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 6})
	rel, _ := comm.Build(g, p)
	topo := topology.DGX1()
	plan, _, _ := core.PlanSPST(rel, topo, 1024, core.SPSTOptions{Seed: 6})
	n, _ := New(topo, DefaultConfig(6))
	spstRes, err := n.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := baselines.PlanSwap(rel, topo, 1024)
	swapRes, err := n.RunSwap(sp)
	if err != nil {
		t.Fatal(err)
	}
	if swapRes.Time <= spstRes.Time {
		t.Fatalf("swap %.4g should be slower than DGCL %.4g on sparse graph", swapRes.Time, spstRes.Time)
	}
}

func TestLinkClassBreakdownPopulated(t *testing.T) {
	g := graph.CommunityGraph(1000, 20, 8, 0.8, 7)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 7})
	rel, _ := comm.Build(g, p)
	topo := topology.DGX1()
	plan, _, _ := core.PlanSPST(rel, topo, 1024, core.SPSTOptions{Seed: 7})
	n, _ := New(topo, DefaultConfig(7))
	res, err := n.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.NVLinkTime <= 0 {
		t.Fatal("SPST on DGX-1 must use NVLink")
	}
}

func TestMeasureFlowsSelfError(t *testing.T) {
	n := exactNet(t, topology.DGX1())
	if _, err := n.MeasureFlows([][2]int{{2, 2}}, 1024); err == nil {
		t.Fatal("expected error for self flow")
	}
}

func TestRunPlanRejectsBadTransfer(t *testing.T) {
	n := exactNet(t, topology.DGX1())
	p := core.NewPlan(8, 8, "bad")
	p.Stages = [][]core.Transfer{{{Src: 0, Dst: 99, Vertices: []int32{1}}}}
	if _, err := n.RunPlan(p); err == nil {
		t.Fatal("expected error for out-of-range GPU")
	}
}

func BenchmarkSimulateStage(b *testing.B) {
	g := graph.CommunityGraph(2000, 24, 8, 0.8, 1)
	p, _ := partition.KWay(g, 8, partition.Options{Seed: 1})
	rel, _ := comm.Build(g, p)
	topo := topology.DGX1()
	plan, _, _ := core.PlanSPST(rel, topo, 1024, core.SPSTOptions{Seed: 1})
	n, _ := New(topo, DefaultConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.RunPlan(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: simulated plan time is monotone in transfer volume and linear
// at the bandwidth-dominated limit.
func TestPropertySimTimeMonotoneInVolume(t *testing.T) {
	topo := topology.DGX1()
	n := exactNet(t, topo)
	prev := 0.0
	for _, scaleUp := range []int{1, 2, 4, 8} {
		p := core.NewPlan(8, int64(1024*scaleUp), "t")
		vs := make([]int32, 200)
		p.Stages = [][]core.Transfer{
			{{Src: 0, Dst: 5, Vertices: vs}, {Src: 1, Dst: 4, Vertices: vs}},
			{{Src: 4, Dst: 7, Vertices: vs}},
		}
		res, err := n.RunPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Time <= prev {
			t.Fatalf("time %v not monotone after %v", res.Time, prev)
		}
		if prev > 0 && math.Abs(res.Time-2*prev)/res.Time > 0.01 {
			t.Fatalf("doubling volume should double time: %v -> %v", prev, res.Time)
		}
		prev = res.Time
	}
}
