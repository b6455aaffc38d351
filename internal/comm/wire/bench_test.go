package wire

import (
	"fmt"
	"testing"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
	"dgcl/internal/topology"
)

// Wire hot-path benchmarks: the same workloads as the runtime package's
// BenchmarkAllgather/BenchmarkEpoch, but with every embedding crossing a
// loopback TCP socket through the framed, credit-windowed wire transport.
// Read next to the channel-transport rows they price the wire tax — and the
// pooled serialization path keeps allocs/op flat across payload sizes.

type benchCase struct {
	k, verts, cols int
}

func (bc benchCase) name() string { return fmt.Sprintf("k%d/v%d/c%d", bc.k, bc.verts, bc.cols) }

func benchCases() []benchCase {
	return []benchCase{
		{k: 4, verts: 1200, cols: 32},
		{k: 8, verts: 3000, cols: 64},
	}
}

// buildBenchFabric stands up the runtime bench cluster with a loopback
// fabric installed as its transport provider.
func buildBenchFabric(b *testing.B, bc benchCase) (*runtime.Cluster, *comm.Relation) {
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
	c, err := runtime.NewCluster(rel, comm.BuildLocalGraphs(g, rel), plan)
	if err != nil {
		b.Fatal(err)
	}
	fab, err := NewLoopbackFabric(bc.k, Config{ClusterID: "bench", PlanSum: PlanDigest(plan)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(fab.Close)
	c.Provider = fab
	return c, rel
}

// BenchmarkWireAllgather times one forward graphAllgather per iteration
// over loopback TCP.
func BenchmarkWireAllgather(b *testing.B) {
	for _, bc := range benchCases() {
		b.Run(bc.name(), func(b *testing.B) {
			c, rel := buildBenchFabric(b, bc)
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

// BenchmarkWireEpoch times one full distributed training epoch per
// iteration with all inter-device traffic on sockets.
func BenchmarkWireEpoch(b *testing.B) {
	for _, bc := range benchCases() {
		b.Run(bc.name(), func(b *testing.B) {
			c, _ := buildBenchFabric(b, bc)
			hidden := bc.cols / 2
			model := gnn.NewModel(gnn.GCN, bc.cols, hidden, 2, 7)
			features := tensor.New(bc.verts, bc.cols).FillRandom(11)
			targets := tensor.New(bc.verts, hidden).FillRandom(12)
			tr, err := runtime.NewTrainer(c, model, features, targets)
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
