package runtime

import (
	"fmt"
	"math"
	"testing"

	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

// Chunk-granularity battery: the chunked transfer layout must give the same
// bits at every chunk size — same collectives, same training trajectories —
// because a client consumes its receives in compiled order and chunking
// preserves row order. Production compiles at the constant ChunkRows; these
// tests rerun the same cases over plans pre-chunked at small sizes (where
// every transfer splits, and the runtime's own ChunkRows split is then a
// no-op) and compare against the cluster's own layout bit for bit. Every
// variant must also move each client's rows in the unchunked stages' order:
// values alone cannot show chunk order. The "Overlap" test names date from
// the pipelined executor that once ran beside the stage loop; the layout
// they check is the one still running.

// chunkVariants are the granularities every case reruns at: tiny chunks (a
// chunk per few rows), an odd size that leaves ragged tails, and a
// realistic size.
var chunkVariants = []int{3, 5, 64}

// rechunked returns a cluster over the same relation and local graphs whose
// plan transfers are pre-split at chunkRows (< ChunkRows), so the compiled
// programs run that layout. It shares nothing mutable with c.
func rechunked(c *Cluster, chunkRows int) *Cluster {
	plan := *c.Plan
	plan.Stages = chunkStages(c.Plan.Stages, chunkRows)
	return &Cluster{K: c.K, Rel: c.Rel, Locals: c.Locals, Plan: &plan}
}

// TestOverlapForwardBitIdenticalToSerial runs the forward battery: for each
// case the cluster's own layout is the reference and every chunk variant
// must reproduce it exactly.
func TestOverlapForwardBitIdenticalToSerial(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, rel := buildCase(t, pc)
			local := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				local[d] = tensor.New(len(rel.Local[d]), pc.cols).FillRandom(pc.seed + int64(d))
			}
			want, err := c.Allgather(local)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range chunkVariants {
				v := rechunked(c, rows)
				got, err := v.Allgather(local)
				if err != nil {
					t.Fatalf("chunk%d: %v", rows, err)
				}
				checkLegacyRowOrder(t, v, false, c.Plan.Stages)
				for d := 0; d < pc.k; d++ {
					if diff := tensor.MaxAbsDiff(got[d], want[d]); diff != 0 {
						t.Fatalf("chunk%d: GPU %d diverges from the ChunkRows layout by %v", rows, d, diff)
					}
				}
			}
		})
	}
}

// TestOverlapBackwardBitIdenticalToSerial is the backward half: receives
// accumulate into relay rows in compiled order, so a chunk layout that
// reordered contributions to one row would change the float sums.
func TestOverlapBackwardBitIdenticalToSerial(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, _ := buildCase(t, pc)
			gradFull := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				lg := c.Locals[d]
				gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, pc.cols).FillRandom(pc.seed + 100 + int64(d))
			}
			want, err := c.BackwardAllgather(gradFull)
			if err != nil {
				t.Fatal(err)
			}
			unchunked := c.Plan.BackwardSchedule()
			for _, rows := range chunkVariants {
				v := rechunked(c, rows)
				got, err := v.BackwardAllgather(gradFull)
				if err != nil {
					t.Fatalf("chunk%d: %v", rows, err)
				}
				checkLegacyRowOrder(t, v, true, unchunked)
				for d := 0; d < pc.k; d++ {
					if diff := tensor.MaxAbsDiff(got[d], want[d]); diff != 0 {
						t.Fatalf("chunk%d: GPU %d diverges from the ChunkRows layout by %v", rows, d, diff)
					}
				}
			}
		})
	}
}

// runSeededTraining builds a fresh trainer for one seed, over plan
// transfers pre-split at chunkRows (0 keeps the cluster's own layout), and
// runs three epochs, returning the per-epoch losses and the final replica-0
// model.
func runSeededTraining(t *testing.T, seed int64, chunkRows int) ([]float64, *gnn.Model) {
	t.Helper()
	ks := []int{2, 3, 4, 6, 8}
	k := ks[seed%int64(len(ks))]
	cols := 8
	pc := propertyCase{
		name:    fmt.Sprintf("train/seed%d", seed),
		g:       graph.CommunityGraph(150+10*int(seed%7), 6, 3, 0.8, seed),
		k:       k,
		seed:    seed,
		planner: "spst",
		cols:    cols,
	}
	c, _ := buildCase(t, pc)
	if chunkRows > 0 {
		c = rechunked(c, chunkRows)
	}
	verts := pc.g.NumVertices()
	model := gnn.NewModel(gnn.GCN, cols, cols/2, 2, seed)
	features := tensor.New(verts, cols).FillRandom(seed + 1)
	targets := tensor.New(verts, cols/2).FillRandom(seed + 2)
	tr, err := NewTrainer(c, model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for e := 0; e < 3; e++ {
		loss, err := tr.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		tr.Step(0.05)
		losses = append(losses, loss)
	}
	return losses, tr.Models[0]
}

// TestOverlapTrainingBitIdentical trains the 20 seeded configurations over
// the cluster's own layout and over two finer chunk layouts; losses and
// final weights must agree bit for bit in every combination.
func TestOverlapTrainingBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			refLosses, refModel := runSeededTraining(t, seed, 0)
			for _, rows := range []int{64, 16} {
				losses, model := runSeededTraining(t, seed, rows)
				for e := range refLosses {
					if math.Float64bits(refLosses[e]) != math.Float64bits(losses[e]) {
						t.Fatalf("chunk%d: epoch %d loss diverges: ChunkRows layout %v, chunked %v", rows, e, refLosses[e], losses[e])
					}
				}
				for li, layer := range refModel.Layers {
					pv := model.Layers[li].Params()
					for pi, pr := range layer.Params() {
						for j := range pr.Data {
							if math.Float32bits(pr.Data[j]) != math.Float32bits(pv[pi].Data[j]) {
								t.Fatalf("chunk%d: layer %d param %d element %d diverges: ChunkRows layout %v, chunked %v",
									rows, li, pi, j, pr.Data[j], pv[pi].Data[j])
							}
						}
					}
				}
			}
		})
	}
}
