package runtime

import (
	"fmt"
	"testing"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/tensor"
	"dgcl/internal/topology"
)

// Epoch hot-path benchmarks (ISSUE 5): BenchmarkAllgather times the forward
// graphAllgather alone, BenchmarkEpoch the full forward+backward+SGD step.
// Both report allocations (b.ReportAllocs): the steady-state allocation
// budget reads alongside wall-clock time. Developer tools, ungated — the
// repo's benchmark is cmd/dgclperf.

// benchCase is one synthesized workload: a community graph partitioned over
// k GPUs with an SPST plan, the configuration the paper's epoch measurements
// use.
type benchCase struct {
	k, verts, cols int
}

func (bc benchCase) name() string { return fmt.Sprintf("k%d/v%d/c%d", bc.k, bc.verts, bc.cols) }

func buildBenchCluster(b *testing.B, bc benchCase) (*Cluster, *comm.Relation) {
	b.Helper()
	g := graph.CommunityGraph(bc.verts, 8, 4, 0.8, 1)
	p, err := partition.KWay(g, bc.k, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		b.Fatal(err)
	}
	plan, _, err := core.PlanSPST(rel, topology.SubDGX1(bc.k), int64(4*bc.cols), core.SPSTOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCluster(rel, comm.BuildLocalGraphs(g, rel), plan)
	if err != nil {
		b.Fatal(err)
	}
	return c, rel
}

// BenchmarkAllgather times one forward graphAllgather per iteration.
func BenchmarkAllgather(b *testing.B) {
	for _, bc := range []benchCase{
		{k: 4, verts: 1200, cols: 32},
		{k: 8, verts: 3000, cols: 64},
	} {
		b.Run(bc.name(), func(b *testing.B) {
			c, rel := buildBenchCluster(b, bc)
			local := make([]*tensor.Matrix, bc.k)
			for d := 0; d < bc.k; d++ {
				local[d] = tensor.New(len(rel.Local[d]), bc.cols).FillRandom(int64(d) + 1)
			}
			if _, err := c.Allgather(local); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Allgather(local); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEpoch times one steady distributed training epoch per iteration:
// layer 0's dense update over its kept aggregation, the hidden layers'
// forward allgathers + layer compute, loss, backward layer compute + reverse
// allgather, gradient allreduce, and the SGD step. The untimed warm-up epoch
// is the one that aggregates the features.
func BenchmarkEpoch(b *testing.B) {
	for _, bc := range []benchCase{
		{k: 4, verts: 1200, cols: 32},
		{k: 8, verts: 3000, cols: 64},
	} {
		b.Run(bc.name(), func(b *testing.B) {
			c, _ := buildBenchCluster(b, bc)
			hidden := bc.cols / 2
			model := gnn.NewModel(gnn.GCN, bc.cols, hidden, 2, 7)
			features := tensor.New(bc.verts, bc.cols).FillRandom(11)
			targets := tensor.New(bc.verts, hidden).FillRandom(12)
			tr, err := NewTrainer(c, model, features, targets)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tr.Epoch(); err != nil {
				b.Fatal(err)
			}
			tr.Step(0.01)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Epoch(); err != nil {
					b.Fatal(err)
				}
				tr.Step(0.01)
			}
		})
	}
}
