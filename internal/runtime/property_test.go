package runtime

import (
	"fmt"
	"slices"
	"testing"

	"dgcl/internal/baselines"
	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/tensor"
	"dgcl/internal/topology"
)

// Property battery: across ~50 seeded (graph, topology, partition) triples,
// the concurrent graphAllgather must agree with a trivial serial reference
// gather, and the backward allgather with a serial transpose-accumulate
// reference. The references ignore the plan entirely (they index straight
// into the owners' matrices), so any routing, relaying, or staging bug in
// the runtime or planner shows up as a mismatch.

// ownerIndexMap maps global vertex id -> row index in the owner's matrix.
func ownerIndexMap(rel *comm.Relation) map[int32]int {
	idx := make(map[int32]int)
	for d := 0; d < rel.K; d++ {
		for i, v := range rel.Local[d] {
			idx[v] = i
		}
	}
	return idx
}

// referenceGather computes what Allgather must deliver, serially: each
// local-graph row is looked up directly in its owner's input matrix.
func referenceGather(rel *comm.Relation, locals []*comm.LocalGraph, local []*tensor.Matrix) []*tensor.Matrix {
	idx := ownerIndexMap(rel)
	cols := local[0].Cols
	out := make([]*tensor.Matrix, rel.K)
	for d := 0; d < rel.K; d++ {
		lg := locals[d]
		out[d] = tensor.New(lg.NumLocal+lg.NumRemote, cols)
		for i := 0; i < lg.NumLocal+lg.NumRemote; i++ {
			v := lg.GlobalID[i]
			copy(out[d].Row(i), local[rel.Owner[v]].Row(idx[v]))
		}
	}
	return out
}

// referenceBackward computes what BackwardAllgather must deliver, serially:
// the transpose of the gather. Every GPU's gradient row for a vertex is
// accumulated at the vertex's owner.
func referenceBackward(rel *comm.Relation, locals []*comm.LocalGraph, gradFull []*tensor.Matrix) []*tensor.Matrix {
	idx := ownerIndexMap(rel)
	cols := gradFull[0].Cols
	out := make([]*tensor.Matrix, rel.K)
	for d := 0; d < rel.K; d++ {
		out[d] = tensor.New(len(rel.Local[d]), cols)
	}
	for e := 0; e < rel.K; e++ {
		lg := locals[e]
		for i := 0; i < lg.NumLocal+lg.NumRemote; i++ {
			v := lg.GlobalID[i]
			dst := out[rel.Owner[v]].Row(idx[v])
			src := gradFull[e].Row(i)
			for j, x := range src {
				dst[j] += x
			}
		}
	}
	return out
}

// propertyCase is one seeded triple plus the planner choice.
type propertyCase struct {
	name    string
	g       *graph.Graph
	k       int
	seed    int64
	planner string // "spst" or "p2p"
	cols    int
}

// propertyCases enumerates the battery: 5 graph families x 5 GPU counts x 2
// planners = 50 triples, each with its own partition seed, plus one wide
// 2-GPU case whose transfers span several ChunkRows chunks (the triples'
// transfers all fit in one).
func propertyCases() []propertyCase {
	gens := []struct {
		name string
		make func(seed int64) *graph.Graph
	}{
		{"community", func(s int64) *graph.Graph { return graph.CommunityGraph(200, 8, 4, 0.8, s) }},
		{"rmat", func(s int64) *graph.Graph { return graph.RMAT(180, 900, 0.57, 0.19, 0.19, s) }},
		{"locality", func(s int64) *graph.Graph { return graph.LocalityGraph(160, 6, s) }},
		{"erdos", func(s int64) *graph.Graph { return graph.ErdosRenyi(150, 700, s) }},
		{"grid", func(s int64) *graph.Graph { return graph.Grid2D(12, 13) }},
	}
	ks := []int{2, 3, 4, 6, 8}
	var cases []propertyCase
	seed := int64(1)
	for _, gen := range gens {
		for _, k := range ks {
			for _, planner := range []string{"spst", "p2p"} {
				cases = append(cases, propertyCase{
					name:    fmt.Sprintf("%s/k%d/%s/seed%d", gen.name, k, planner, seed),
					g:       gen.make(seed),
					k:       k,
					seed:    seed,
					planner: planner,
					cols:    1 + int(seed%5),
				})
				seed++
			}
		}
	}
	return append(cases, propertyCase{
		name:    fmt.Sprintf("wide/k2/spst/seed%d", seed),
		g:       graph.ErdosRenyi(1800, 9000, seed),
		k:       2,
		seed:    seed,
		planner: "spst",
		cols:    2,
	})
}

func buildCase(t *testing.T, pc propertyCase) (*Cluster, *comm.Relation) {
	t.Helper()
	p, err := partition.KWay(pc.g, pc.k, partition.Options{Seed: pc.seed})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := comm.Build(pc.g, p)
	if err != nil {
		t.Fatal(err)
	}
	var plan *core.Plan
	if pc.planner == "p2p" {
		plan = baselines.PlanP2P(rel, int64(4*pc.cols))
	} else {
		plan, _, err = core.PlanSPST(rel, topology.SubDGX1(pc.k), int64(4*pc.cols), core.SPSTOptions{Seed: pc.seed})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCluster(rel, comm.BuildLocalGraphs(pc.g, rel), plan)
	if err != nil {
		t.Fatal(err)
	}
	return c, rel
}

func TestPropertyAllgatherMatchesSerialReference(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, rel := buildCase(t, pc)
			local := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				local[d] = tensor.New(len(rel.Local[d]), pc.cols).FillRandom(pc.seed + int64(d))
			}
			got, err := c.Allgather(local)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceGather(rel, c.Locals, local)
			for d := 0; d < pc.k; d++ {
				// Forward moves pure copies: bit-identical, not merely close.
				if diff := tensor.MaxAbsDiff(got[d], want[d]); diff != 0 {
					t.Fatalf("GPU %d diverges from serial reference by %v", d, diff)
				}
			}
		})
	}
}

func TestPropertyBackwardMatchesTransposeReference(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, rel := buildCase(t, pc)
			gradFull := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				lg := c.Locals[d]
				gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, pc.cols).FillRandom(pc.seed + 100 + int64(d))
			}
			got, err := c.BackwardAllgather(gradFull)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceBackward(rel, c.Locals, gradFull)
			for d := 0; d < pc.k; d++ {
				// Relays re-associate float32 sums; allow rounding slack only.
				if diff := tensor.MaxAbsDiff(got[d], want[d]); diff > 1e-4 {
					t.Fatalf("GPU %d diverges from transpose reference by %v", d, diff)
				}
			}
		})
	}
}

// TestBackwardIsForwardReversed checks the backward program's shape against
// the forward one, client by client: backward stage b holds exactly forward
// stage S-1-b's transfers with endpoints swapped, in the same order and under
// the same transfer indices — forward sends become backward receives and
// forward receives become backward sends, and nothing is split or added.
func TestBackwardIsForwardReversed(t *testing.T) {
	swapped := func(tr core.Transfer) core.Transfer {
		return core.Transfer{Src: tr.Dst, Dst: tr.Src, Vertices: tr.Vertices}
	}
	same := func(a, b core.Transfer) bool {
		return a.Src == b.Src && a.Dst == b.Dst && slices.Equal(a.Vertices, b.Vertices)
	}
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, _ := buildCase(t, pc)
			fwd, err := c.program(false)
			if err != nil {
				t.Fatal(err)
			}
			bwd, err := c.program(true)
			if err != nil {
				t.Fatal(err)
			}
			S := len(fwd.stages)
			if len(bwd.stages) != S {
				t.Fatalf("backward has %d stages, forward %d", len(bwd.stages), S)
			}
			for d := range fwd.clients {
				for b := 0; b < S; b++ {
					f := fwd.clients[d].stages[S-1-b]
					bs := bwd.clients[d].stages[b]
					if len(bs.recvs) != len(f.sends) || len(bs.sends) != len(f.recvs) {
						t.Fatalf("GPU %d backward stage %d: %d sends/%d recvs, forward stage %d has %d recvs/%d sends",
							d, b, len(bs.sends), len(bs.recvs), S-1-b, len(f.recvs), len(f.sends))
					}
					for i, snd := range f.sends {
						r := bs.recvs[i]
						if r.key != (TransferKey{b, snd.key.Index}) || !same(r.tr, swapped(snd.tr)) {
							t.Fatalf("GPU %d backward stage %d recv %d = %v %+v, want forward send %v reversed", d, b, i, r.key, r.tr, snd.key)
						}
					}
					for i, rcv := range f.recvs {
						s := bs.sends[i]
						if s.key != (TransferKey{b, rcv.key.Index}) || !same(s.tr, swapped(rcv.tr)) {
							t.Fatalf("GPU %d backward stage %d send %d = %v %+v, want forward recv %v reversed", d, b, i, s.key, s.tr, rcv.key)
						}
					}
				}
			}
		})
	}
}

// TestWidePropertyCaseIsChunked keeps the battery's wide case wide: its
// widest transfer must span at least three ChunkRows chunks, or the
// equivalence battery would stop comparing a chunked layout against the
// unchunked legacy loops.
func TestWidePropertyCaseIsChunked(t *testing.T) {
	cases := propertyCases()
	c, _ := buildCase(t, cases[len(cases)-1])
	widest := 0
	for _, st := range c.Plan.Stages {
		for _, tr := range st {
			widest = max(widest, len(tr.Vertices))
		}
	}
	if widest <= 2*ChunkRows {
		t.Fatalf("widest transfer of the wide case has %d rows, want more than %d", widest, 2*ChunkRows)
	}
}
