package dgcl

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

func TestListingOneWorkflow(t *testing.T) {
	// The end-to-end flow of Listing 1: init, buildCommInfo, dispatch,
	// allgather per layer, backward.
	g := Reddit.Generate(512, 1)
	sys := Init(DGX1(), Options{Seed: 1})
	if sys.NumGPUs() != 8 {
		t.Fatalf("NumGPUs=%d", sys.NumGPUs())
	}
	if err := sys.BuildCommInfo(g, 32); err != nil {
		t.Fatal(err)
	}
	features := RandomFeatures(g.NumVertices(), 32, 2)
	local, err := sys.DispatchFeatures(features)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.GraphAllgather(local)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 8; d++ {
		lg := sys.LocalGraph(d)
		if full[d].Rows != lg.NumLocal+lg.NumRemote {
			t.Fatalf("GPU %d full rows %d want %d", d, full[d].Rows, lg.NumLocal+lg.NumRemote)
		}
		// Every delivered row matches the global feature row.
		for i, v := range lg.GlobalID {
			for j := 0; j < 32; j++ {
				if full[d].At(i, j) != features.At(int(v), j) {
					t.Fatalf("GPU %d vertex %d feature mismatch", d, v)
				}
			}
		}
	}
}

func TestCallOrderEnforced(t *testing.T) {
	sys := Init(DGX1(), Options{})
	if _, err := sys.DispatchFeatures(NewMatrix(8, 4)); err == nil {
		t.Fatal("DispatchFeatures before BuildCommInfo must fail")
	}
	if _, err := sys.GraphAllgather(nil); err == nil {
		t.Fatal("GraphAllgather before BuildCommInfo must fail")
	}
}

func TestBuildCommInfoErrors(t *testing.T) {
	g := Reddit.Generate(2048, 1)
	sys := Init(DGX1(), Options{})
	if err := sys.BuildCommInfo(g, 0); err == nil {
		t.Fatal("featureDim 0 must fail")
	}
	bad := Init(DGX1(), Options{Planner: "bogus"})
	if err := bad.BuildCommInfo(g, 8); err == nil {
		t.Fatal("unknown planner must fail")
	}
}

func TestSPSTBeatsP2PViaPublicAPI(t *testing.T) {
	g := Reddit.Generate(256, 3)
	spst := Init(DGX1(), Options{Planner: PlannerSPST, Seed: 3})
	if err := spst.BuildCommInfo(g, 128); err != nil {
		t.Fatal(err)
	}
	p2p := Init(DGX1(), Options{Planner: PlannerP2P, Seed: 3})
	if err := p2p.BuildCommInfo(g, 128); err != nil {
		t.Fatal(err)
	}
	if spst.PlannedCost() >= p2p.PlannedCost() {
		t.Fatalf("SPST %v should beat P2P %v", spst.PlannedCost(), p2p.PlannedCost())
	}
	st, err := spst.SimulateAllgatherTime(1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := p2p.SimulateAllgatherTime(1)
	if err != nil {
		t.Fatal(err)
	}
	if st >= pt {
		t.Fatalf("simulated: SPST %v should beat P2P %v", st, pt)
	}
}

func TestDistributedTrainingViaPublicAPI(t *testing.T) {
	g := WebGoogle.Generate(2048, 4)
	n := g.NumVertices()
	sys := Init(TopologyForGPUCountMust(4), Options{Seed: 4})
	if err := sys.BuildCommInfo(g, 16); err != nil {
		t.Fatal(err)
	}
	model := NewModel(GCN, 16, 8, 2, 5)
	features := RandomFeatures(n, 16, 6)
	targets := RandomFeatures(n, 8, 7)
	tr, err := sys.NewTrainer(model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	tr.Step(0.001)
	var last float64
	for i := 0; i < 5; i++ {
		last, err = tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		tr.Step(0.001)
	}
	if math.IsNaN(last) || last >= first {
		t.Fatalf("training did not progress: %v -> %v", first, last)
	}
}

// TopologyForGPUCountMust is a test helper.
func TopologyForGPUCountMust(n int) *Topology {
	topo, err := TopologyForGPUCount(n)
	if err != nil {
		panic(err)
	}
	return topo
}

func TestMultiMachineHierarchicalPartitioning(t *testing.T) {
	g := ComOrkut.Generate(2048, 5)
	sys := Init(TwoMachineDGX1(), Options{Seed: 5})
	if err := sys.BuildCommInfo(g, 16); err != nil {
		t.Fatal(err)
	}
	if sys.NumGPUs() != 16 {
		t.Fatalf("NumGPUs=%d", sys.NumGPUs())
	}
	assign := sys.PartitionAssignment()
	seen := map[int32]bool{}
	for _, a := range assign {
		seen[a] = true
	}
	if len(seen) != 16 {
		t.Fatalf("only %d parts used", len(seen))
	}
}

func TestNewGraphFromEdges(t *testing.T) {
	g, err := NewGraphFromEdges(3, []Edge{{Src: 0, Dst: 1}}, false)
	if err != nil || g.NumEdges() != 1 {
		t.Fatalf("g=%v err=%v", g, err)
	}
	if _, err := NewGraphFromEdges(1, []Edge{{Src: 0, Dst: 9}}, false); err == nil {
		t.Fatal("expected range error")
	}
}

func TestGraphAllgatherBackwardPublic(t *testing.T) {
	g := WebGoogle.Generate(4096, 8)
	sys := Init(TopologyForGPUCountMust(4), Options{Seed: 8})
	if err := sys.BuildCommInfo(g, 8); err != nil {
		t.Fatal(err)
	}
	gradFull := make([]*Matrix, 4)
	for d := 0; d < 4; d++ {
		lg := sys.LocalGraph(d)
		gradFull[d] = RandomFeatures(lg.NumLocal+lg.NumRemote, 8, int64(d))
	}
	grads, err := sys.GraphAllgatherBackward(gradFull)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		if grads[d].Rows != sys.LocalGraph(d).NumLocal {
			t.Fatalf("GPU %d grad rows %d", d, grads[d].Rows)
		}
	}
}

func TestSteinerPlannerViaPublicAPI(t *testing.T) {
	g := Reddit.Generate(512, 9)
	st := Init(DGX1(), Options{Planner: PlannerSteiner, Seed: 9})
	if err := st.BuildCommInfo(g, 64); err != nil {
		t.Fatal(err)
	}
	spst := Init(DGX1(), Options{Planner: PlannerSPST, Seed: 9})
	if err := spst.BuildCommInfo(g, 64); err != nil {
		t.Fatal(err)
	}
	if spst.PlannedCost() > st.PlannedCost()*1.02 {
		t.Fatalf("SPST %v should not lose to Steiner %v", spst.PlannedCost(), st.PlannedCost())
	}
	// Steiner plans are executable: training runs on them.
	features := RandomFeatures(g.NumVertices(), 8, 1)
	targets := RandomFeatures(g.NumVertices(), 8, 2)
	model := NewModel(GCN, 8, 8, 2, 3)
	tr, err := st.NewTrainer(model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCommInfoDeterministicAcrossGOMAXPROCS: set-up overlaps planning
// with the local-graph build and fans per-machine and per-device work out
// over GOMAXPROCS; what it builds must be the same at every setting.
func TestBuildCommInfoDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	g := ComOrkut.Generate(1024, 7)
	n := g.NumVertices()
	features := RandomFeatures(n, 8, 8)
	targets := RandomFeatures(n, 6, 9)
	type built struct {
		plan []byte
		cost float64
		loss float64
	}
	var want built
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		sys := Init(TopologyForGPUCountMust(16), Options{Seed: 7})
		if err := sys.BuildCommInfo(g, 8); err != nil {
			t.Fatal(err)
		}
		var plan bytes.Buffer
		if err := sys.Plan().WriteJSON(&plan); err != nil {
			t.Fatal(err)
		}
		tr, err := sys.NewTrainer(NewModel(GCN, 8, 6, 2, 10), features, targets)
		if err != nil {
			t.Fatal(err)
		}
		loss, err := tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		got := built{plan.Bytes(), sys.PlannedCost(), loss}
		if procs == 1 {
			want = got
			continue
		}
		if !bytes.Equal(got.plan, want.plan) {
			t.Errorf("GOMAXPROCS=%d: plan JSON differs from GOMAXPROCS=1", procs)
		}
		if got.cost != want.cost || got.loss != want.loss {
			t.Errorf("GOMAXPROCS=%d: planned cost %v, first-epoch loss %v; GOMAXPROCS=1 gave %v, %v",
				procs, got.cost, got.loss, want.cost, want.loss)
		}
	}
}

func TestDGX2FlatFabricNearParity(t *testing.T) {
	// On a flat NVSwitch fabric every pair has full bandwidth, so SPST has
	// little to improve over P2P — the planner must not hurt.
	g := ComOrkut.Generate(2048, 15)
	spst := Init(DGX2(), Options{Seed: 15})
	if err := spst.BuildCommInfo(g, 32); err != nil {
		t.Fatal(err)
	}
	p2p := Init(DGX2(), Options{Planner: PlannerP2P, Seed: 15})
	if err := p2p.BuildCommInfo(g, 32); err != nil {
		t.Fatal(err)
	}
	if spst.PlannedCost() > p2p.PlannedCost()*1.05 {
		t.Fatalf("SPST %v should not lose on DGX-2 vs P2P %v", spst.PlannedCost(), p2p.PlannedCost())
	}
}

func TestAccessorsAndEarlyCalls(t *testing.T) {
	sys := Init(DGX1(), Options{Seed: 21})
	// Everything that needs BuildCommInfo must refuse before it.
	if _, err := sys.GraphAllgatherBackward(nil); err == nil {
		t.Fatal("backward before BuildCommInfo must fail")
	}
	if _, err := sys.NewTrainer(nil, nil, nil); err == nil {
		t.Fatal("trainer before BuildCommInfo must fail")
	}
	if _, err := sys.SimulateAllgatherTime(1); err == nil {
		t.Fatal("simulate before BuildCommInfo must fail")
	}
	g := Reddit.Generate(1024, 21)
	if err := sys.BuildCommInfo(g, 16); err != nil {
		t.Fatal(err)
	}
	if sys.Plan() == nil || sys.Plan().NumStages() < 1 {
		t.Fatal("Plan accessor broken")
	}
	rel := sys.Relation()
	if rel == nil || rel.K != 8 {
		t.Fatal("Relation accessor broken")
	}
	if err := rel.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dispatch with wrong row count fails.
	if _, err := sys.DispatchFeatures(NewMatrix(3, 16)); err == nil {
		t.Fatal("wrong-sized features must fail")
	}
}

// A trainer aggregates layer 0 once: every epoch after its first sends
// exactly one feature-width forward allgather fewer, and nothing else
// changes in what goes over the links.
func TestSteadyEpochSkipsLayer0Allgather(t *testing.T) {
	g := WebGoogle.Generate(8192, 22)
	n := g.NumVertices()
	features := RandomFeatures(n, 8, 23)
	targets := RandomFeatures(n, 3, 24)
	sys := Init(TopologyForGPUCountMust(4), Options{Seed: 22})
	if err := sys.BuildCommInfo(g, 8); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRunOptions(RunOptions{CollectStats: true}); err != nil {
		t.Fatal(err)
	}
	stats := sys.Stats()
	tr, err := sys.NewTrainer(NewModel(GCN, 8, 3, 2, 25), features, targets)
	if err != nil {
		t.Fatal(err)
	}
	var epochBytes [3]int64
	for e := range epochBytes {
		stats.Reset()
		if _, err := tr.Epoch(); err != nil {
			t.Fatal(err)
		}
		tr.Step(0.001)
		epochBytes[e] = stats.TotalBytes()
	}
	local, err := sys.DispatchFeatures(features)
	if err != nil {
		t.Fatal(err)
	}
	stats.Reset()
	if _, err := sys.GraphAllgather(local); err != nil {
		t.Fatal(err)
	}
	layer0 := stats.TotalBytes()
	t.Logf("sent bytes: epoch 1 %d, epochs 2-3 %d, one feature-width allgather %d", epochBytes[0], epochBytes[1], layer0)
	if layer0 == 0 {
		t.Fatal("the feature allgather sent nothing; the test is vacuous")
	}
	if epochBytes[1] != epochBytes[0]-layer0 || epochBytes[2] != epochBytes[1] {
		t.Fatalf("sent bytes per epoch %v, want %d then %d twice", epochBytes, epochBytes[0], epochBytes[0]-layer0)
	}
}

func TestPlanCacheViaPublicAPI(t *testing.T) {
	g := Reddit.Generate(512, 1)
	dir := t.TempDir()
	opts := Options{Seed: 1, Plan: PlanOptions{CacheDir: dir}}

	cold := Init(DGX1(), opts)
	if err := cold.BuildCommInfo(g, 32); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cold.PlanCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("cold stats = (%d, %d), want (0, 1)", hits, misses)
	}

	warm := Init(DGX1(), opts)
	if err := warm.BuildCommInfo(g, 32); err != nil {
		t.Fatal(err)
	}
	if hits, misses := warm.PlanCacheStats(); hits != 1 || misses != 0 {
		t.Fatalf("warm stats = (%d, %d), want (1, 0)", hits, misses)
	}
	if warm.PlannedCost() <= 0 {
		t.Fatal("cached plan lost its cost state")
	}
	// The cached plan must execute: run one allgather through the runtime.
	features := RandomFeatures(g.NumVertices(), 32, 2)
	local, err := warm.DispatchFeatures(features)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.GraphAllgather(local); err != nil {
		t.Fatal(err)
	}

	uncached := Init(DGX1(), Options{Seed: 1})
	if err := uncached.BuildCommInfo(g, 32); err != nil {
		t.Fatal(err)
	}
	if hits, misses := uncached.PlanCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("no-cache stats = (%d, %d), want (0, 0)", hits, misses)
	}
	if warm.PlannedCost() != uncached.PlannedCost() {
		t.Fatalf("cached cost %v != freshly planned cost %v", warm.PlannedCost(), uncached.PlannedCost())
	}
}
