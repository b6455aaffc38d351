package runtime

import (
	"math"
	"sync"
	"testing"

	"dgcl/internal/baselines"
	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/tensor"
	"dgcl/internal/topology"
)

// setup builds the standard pipeline: graph -> partition -> relation ->
// local graphs -> SPST plan -> cluster.
func setup(t testing.TB, g *graph.Graph, k int, seed int64, featureBytes int64) (*Cluster, *comm.Relation) {
	t.Helper()
	p, err := partition.KWay(g, k, partition.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.SubDGX1(k)
	plan, _, err := core.PlanSPST(rel, topo, featureBytes, core.SPSTOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	locals := comm.BuildLocalGraphs(g, rel)
	c, err := NewCluster(rel, locals, plan)
	if err != nil {
		t.Fatal(err)
	}
	return c, rel
}

func TestAllgatherDeliversExactRows(t *testing.T) {
	g := graph.CommunityGraph(300, 10, 4, 0.8, 1)
	c, rel := setup(t, g, 4, 1, 64)
	// Feature = f(global id) so delivery is checkable.
	cols := 3
	local := make([]*tensor.Matrix, 4)
	for d := 0; d < 4; d++ {
		local[d] = tensor.New(len(rel.Local[d]), cols)
		for i, v := range rel.Local[d] {
			for j := 0; j < cols; j++ {
				local[d].Set(i, j, float32(v)*10+float32(j))
			}
		}
	}
	full, err := c.Allgather(local)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		lg := c.Locals[d]
		for i, v := range lg.GlobalID {
			for j := 0; j < cols; j++ {
				want := float32(v)*10 + float32(j)
				if got := full[d].At(i, j); got != want {
					t.Fatalf("GPU %d row %d (vertex %d) col %d = %v want %v", d, i, v, j, got, want)
				}
			}
		}
	}
}

func TestAllgatherWithP2PPlan(t *testing.T) {
	g := graph.Ring(32)
	p, _ := partition.KWay(g, 4, partition.Options{Seed: 2})
	rel, _ := comm.Build(g, p)
	plan := baselines.PlanP2P(rel, 64)
	c, err := NewCluster(rel, comm.BuildLocalGraphs(g, rel), plan)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]*tensor.Matrix, 4)
	for d := 0; d < 4; d++ {
		local[d] = tensor.New(len(rel.Local[d]), 2)
		for i, v := range rel.Local[d] {
			local[d].Set(i, 0, float32(v))
		}
	}
	full, err := c.Allgather(local)
	if err != nil {
		t.Fatal(err)
	}
	lg := c.Locals[0]
	for i, v := range lg.GlobalID {
		if full[0].At(i, 0) != float32(v) {
			t.Fatalf("p2p allgather wrong at row %d", i)
		}
	}
}

func TestAllgatherInputValidation(t *testing.T) {
	g := graph.Ring(16)
	c, _ := setup(t, g, 4, 3, 16)
	if _, err := c.Allgather(make([]*tensor.Matrix, 2)); err == nil {
		t.Fatal("expected length error")
	}
	bad := make([]*tensor.Matrix, 4)
	for i := range bad {
		bad[i] = tensor.New(1, 2)
	}
	if _, err := c.Allgather(bad); err == nil {
		t.Fatal("expected row-count error")
	}
}

func TestBackwardAllgatherSumsContributions(t *testing.T) {
	// Ring of 8 over 4 GPUs: vertex v's gradient contributions from each
	// consumer must sum at the owner.
	g := graph.Ring(8)
	p := partition.Range(g, 4)
	rel, _ := comm.Build(g, p)
	plan := baselines.PlanP2P(rel, 8)
	c, err := NewCluster(rel, comm.BuildLocalGraphs(g, rel), plan)
	if err != nil {
		t.Fatal(err)
	}
	cols := 2
	gradFull := make([]*tensor.Matrix, 4)
	for d := 0; d < 4; d++ {
		lg := c.Locals[d]
		gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, cols)
		for i := 0; i < lg.NumLocal+lg.NumRemote; i++ {
			// Every GPU contributes 1.0 per vertex row it holds.
			gradFull[d].Set(i, 0, 1)
		}
	}
	grads, err := c.BackwardAllgather(gradFull)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 is remote on GPU 3 (edge 7-0) and GPU 1? Ring edges: 0-1,7-0.
	// Owner GPU0 contributes 1; every GPU holding 0 as remote adds 1.
	holders := 1
	for d := 1; d < 4; d++ {
		for _, v := range rel.Remote[d] {
			if v == 0 {
				holders++
			}
		}
	}
	if got := grads[0].At(0, 0); got != float32(holders) {
		t.Fatalf("vertex 0 grad = %v want %v", got, holders)
	}
}

// The core correctness claim: distributed training over DGCL produces the
// same result as single-device training, for every model kind, up to
// float32 reassociation.
func TestDistributedMatchesSingleDevice(t *testing.T) {
	for _, kind := range gnn.AllModels {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			g := graph.CommunityGraph(200, 8, 4, 0.8, 5)
			n := g.NumVertices()
			fin, hidden := 6, 5
			model := gnn.NewModel(kind, fin, hidden, 2, 77)
			features := tensor.New(n, fin).FillRandom(88)
			targets := tensor.New(n, hidden).FillRandom(99)

			// Single device reference.
			ref := model.Clone()
			sd := gnn.NewSingleDevice(ref, g, 0)
			sd.Target = targets
			refLoss := sd.Epoch(features)

			// Distributed over 4 GPUs with SPST.
			c, _ := setup(t, g, 4, 5, int64(4*fin))
			trainer, err := NewTrainer(c, model, features, targets)
			if err != nil {
				t.Fatal(err)
			}
			loss, err := trainer.Epoch()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(loss-refLoss) > 1e-3*(1+math.Abs(refLoss)) {
				t.Fatalf("distributed loss %v != single-device %v", loss, refLoss)
			}
			// Gradients (allreduced) must match the single-device gradients.
			for li, layer := range ref.Layers {
				for pi, gref := range layer.Grads() {
					gdist := trainer.Models[0].Layers[li].Grads()[pi]
					if diff := tensor.MaxAbsDiff(gref, gdist); diff > 1e-2*(1+tensor.Frobenius(gref)) {
						t.Fatalf("%s layer %d param %d grad diff %v", kind, li, pi, diff)
					}
				}
			}
		})
	}
}

func TestDistributedTrainingConvergesIdentically(t *testing.T) {
	// Several epochs with weight updates: distributed and single-device loss
	// trajectories must stay together.
	g := graph.CommunityGraph(150, 8, 3, 0.8, 6)
	n := g.NumVertices()
	model := gnn.NewModel(gnn.GCN, 5, 4, 2, 11)
	features := tensor.New(n, 5).FillRandom(12)
	targets := tensor.New(n, 4).FillRandom(13)

	ref := model.Clone()
	sd := gnn.NewSingleDevice(ref, g, 0)
	sd.Target = targets

	c, _ := setup(t, g, 4, 6, 20)
	trainer, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	const lr = 0.005
	var refLoss, distLoss float64
	for e := 0; e < 5; e++ {
		refLoss = sd.Epoch(features)
		ref.Step(lr)
		distLoss, err = trainer.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		trainer.Step(lr)
		if math.Abs(refLoss-distLoss) > 1e-2*(1+refLoss) {
			t.Fatalf("epoch %d: losses diverged %v vs %v", e, refLoss, distLoss)
		}
	}
	_ = distLoss
}

func TestForwardMatchesSingleDeviceExactVertices(t *testing.T) {
	g := graph.Grid2D(10, 10)
	n := g.NumVertices()
	model := gnn.NewModel(gnn.GCN, 4, 3, 2, 21)
	features := tensor.New(n, 4).FillRandom(22)
	targets := tensor.New(n, 3).FillRandom(23)

	ref := model.Clone()
	sd := gnn.NewSingleDevice(ref, g, 0)
	refOut, _ := sd.Forward(features)

	c, _ := setup(t, g, 4, 7, 16)
	trainer, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	out, err := trainer.Forward(n)
	if err != nil {
		t.Fatal(err)
	}
	if diff := tensor.MaxAbsDiff(refOut, out); diff > 1e-4 {
		t.Fatalf("forward outputs diverge: %v", diff)
	}
}

func TestClusterRejectsInvalidPlan(t *testing.T) {
	g := graph.Ring(16)
	p, _ := partition.KWay(g, 4, partition.Options{Seed: 8})
	rel, _ := comm.Build(g, p)
	empty := core.NewPlan(4, 8, "empty")
	if _, err := NewCluster(rel, comm.BuildLocalGraphs(g, rel), empty); err == nil {
		t.Fatal("expected plan validation failure")
	}
}

func TestMultiHopForwardingDeliversData(t *testing.T) {
	// Hand-built relation forcing a relay: GPU0 owns v0 needed by GPUs 2,3;
	// plan forwards 0->1->2->3.
	rel := &comm.Relation{
		K:      4,
		Owner:  []int32{0, 1, 2, 3},
		Local:  [][]int32{{0}, {1}, {2}, {3}},
		Remote: [][]int32{nil, nil, {0}, {0}},
		Send:   make([][][]int32, 4),
	}
	for i := range rel.Send {
		rel.Send[i] = make([][]int32, 4)
	}
	rel.Send[0][2] = []int32{0}
	rel.Send[0][3] = []int32{0}
	if err := rel.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := core.NewPlan(4, 4, "relay")
	plan.Stages = [][]core.Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{0}}},
		{{Src: 1, Dst: 2, Vertices: []int32{0}}},
		{{Src: 2, Dst: 3, Vertices: []int32{0}}},
	}
	if err := plan.Validate(rel); err != nil {
		t.Fatal(err)
	}
	// Local graphs: build from a graph where 2 and 3 reference vertex 0.
	g := graph.MustFromEdges(4, []graph.Edge{{Src: 2, Dst: 0}, {Src: 3, Dst: 0}}, false)
	locals := comm.BuildLocalGraphs(g, rel)
	c, err := NewCluster(rel, locals, plan)
	if err != nil {
		t.Fatal(err)
	}
	local := []*tensor.Matrix{
		tensor.FromData(1, 1, []float32{42}),
		tensor.FromData(1, 1, []float32{1}),
		tensor.FromData(1, 1, []float32{2}),
		tensor.FromData(1, 1, []float32{3}),
	}
	full, err := c.Allgather(local)
	if err != nil {
		t.Fatal(err)
	}
	// GPU2 and GPU3 must have received 42 via the relay chain; GPU1 relayed
	// without consuming.
	lg2 := c.Locals[2]
	if full[2].At(lg2.NumLocal, 0) != 42 {
		t.Fatal("GPU2 did not receive relayed vertex")
	}
	lg3 := c.Locals[3]
	if full[3].At(lg3.NumLocal, 0) != 42 {
		t.Fatal("GPU3 did not receive relayed vertex")
	}
	// Backward: gradients 5 (GPU2) and 7 (GPU3) must sum to 12 at GPU0.
	gradFull := []*tensor.Matrix{
		tensor.FromData(1, 1, []float32{0}),
		tensor.FromData(1, 1, []float32{0}),
		tensor.FromData(2, 1, []float32{0, 5}),
		tensor.FromData(2, 1, []float32{0, 7}),
	}
	grads, err := c.BackwardAllgather(gradFull)
	if err != nil {
		t.Fatal(err)
	}
	if got := grads[0].At(0, 0); got != 12 {
		t.Fatalf("relayed gradient sum = %v want 12", got)
	}
}

// TestChunkStagesPreservesRowsAndStages checks the chunk splitter's
// invariants directly: stage count unchanged, per-stage vertex sequences
// unchanged (concatenating chunk vertex lists reproduces the originals in
// order), every chunk within the size bound, and endpoints preserved.
func TestChunkStagesPreservesRowsAndStages(t *testing.T) {
	stages := [][]core.Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{1, 2, 3, 4, 5, 6, 7}}},
		{{Src: 1, Dst: 2, Vertices: []int32{8, 9}}, {Src: 2, Dst: 0, Vertices: []int32{10, 11, 12}}},
		{},
	}
	chunked := chunkStages(stages, 3)
	if len(chunked) != len(stages) {
		t.Fatalf("stage count changed: %d -> %d", len(stages), len(chunked))
	}
	for si, st := range stages {
		var got []int32
		for _, tr := range chunked[si] {
			if len(tr.Vertices) > 3 {
				t.Fatalf("stage %d: chunk of %d rows exceeds bound", si, len(tr.Vertices))
			}
			got = append(got, tr.Vertices...)
		}
		var want []int32
		for _, tr := range st {
			want = append(want, tr.Vertices...)
		}
		if len(got) != len(want) {
			t.Fatalf("stage %d: %d rows after chunking, want %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stage %d row %d: vertex %d, want %d", si, i, got[i], want[i])
			}
		}
	}
	// Endpoint check: every chunk of stage 1 keeps its parent's src/dst.
	for _, tr := range chunked[1] {
		if (tr.Src != 1 || tr.Dst != 2) && (tr.Src != 2 || tr.Dst != 0) {
			t.Fatalf("stage 1 chunk has foreign endpoints %d->%d", tr.Src, tr.Dst)
		}
	}
	if got := chunkStages(stages, 0); &got[0] != &stages[0] {
		t.Fatal("chunkRows 0 should return the input unchanged")
	}
}

// TestTransportCacheConcurrentAcquireRelease hammers the program state
// cache (channel transport and relay arenas under one in-use flag) from
// many goroutines, with a deterministic sprinkling of failed releases: the
// cache must stay race-clean, never hand the same state to two holders at
// once, and evict a state released as failed instead of reusing it. The
// cache admits concurrent collectives on one cluster (a second one runs on a
// fresh state), and TestConcurrentCollectivesMatchSerial drives that through
// whole collectives; this test covers the cache alone.
func TestTransportCacheConcurrentAcquireRelease(t *testing.T) {
	sc := &stateCache{}
	var mu sync.Mutex
	held := make(map[*execState]bool)
	failedOnce := make(map[*execState]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := sc.acquire(2)
				mu.Lock()
				if held[b] {
					mu.Unlock()
					t.Error("state handed to two concurrent holders")
					return
				}
				if failedOnce[b] {
					mu.Unlock()
					t.Error("failed-released state reused")
					return
				}
				held[b] = true
				mu.Unlock()
				fail := (g+i)%13 == 0
				mu.Lock()
				delete(held, b)
				if fail {
					failedOnce[b] = true
				}
				mu.Unlock()
				sc.release(b, fail)
			}
		}()
	}
	wg.Wait()
}
