package core

import (
	"sync"
	"testing"

	"dgcl/internal/comm"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/topology"
)

// Planner benchmarks over four workloads (developer tools, ungated);
// orkut-dual16 is setup-orkut16's shape, whose planning dominates that
// workload's set-up.

// benchWorkload lazily builds and caches one named (relation, topology)
// workload; graph synthesis and partitioning dominate planning for the
// large cases and must not be re-run per benchmark iteration.
var benchWorkloads sync.Map // name -> *relTopo

func benchWorkload(b *testing.B, name string) *relTopo {
	b.Helper()
	if w, ok := benchWorkloads.Load(name); ok {
		return w.(*relTopo)
	}
	var g *graph.Graph
	var topo *topology.Topology
	var shape []int
	switch name {
	case "web64-16":
		g = graph.WebGoogle.Generate(64, 1)
		topo, _ = topology.ForGPUCount(16)
		shape = []int{8, 8}
	case "reddit32-16":
		g = graph.Reddit.Generate(32, 1)
		topo, _ = topology.ForGPUCount(16)
		shape = []int{8, 8}
	case "orkut-dual16": // setup-orkut16's shape
		g = graph.ComOrkut.Generate(128, 1)
		topo = topology.TwoMachineDGX1()
		shape = []int{8, 8}
	case "orkut128-32":
		g = graph.ComOrkut.Generate(128, 1)
		topo = topology.MultiMachineDGX1(4)
		shape = []int{8, 8, 8, 8}
	default:
		b.Fatalf("unknown bench workload %q", name)
	}
	p, err := partition.Hierarchical(g, shape, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		b.Fatal(err)
	}
	w := &relTopo{rel: rel, topo: topo}
	benchWorkloads.Store(name, w)
	return w
}

func BenchmarkPlanSPST(b *testing.B) {
	for _, name := range []string{"web64-16", "reddit32-16", "orkut-dual16", "orkut128-32"} {
		w := benchWorkload(b, name)
		b.Run(name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				_, state, err := PlanSPST(w.rel, w.topo, 1024, SPSTOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				cost = state.Cost()
			}
			b.ReportMetric(cost*1e3, "modeled-ms")
		})
	}
}

// BenchmarkPlanCacheWarm prices a warm content-addressed lookup (hash the
// inputs, replay the plan's cost state) against replanning from scratch.
func BenchmarkPlanCacheWarm(b *testing.B) {
	w := benchWorkload(b, "reddit32-16")
	c := NewPlanCache("")
	if _, _, err := c.PlanSPST(w.rel, w.topo, 1024, SPSTOptions{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.PlanSPST(w.rel, w.topo, 1024, SPSTOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
