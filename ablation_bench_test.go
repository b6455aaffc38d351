package dgcl

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one ingredient of the SPST planner or runtime and reports the
// modeled communication time it buys.

import (
	"testing"

	"dgcl/internal/baselines"
	"dgcl/internal/collective"
	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/simnet"
	"dgcl/internal/topology"
)

func ablationRelation(b *testing.B) (*comm.Relation, *topology.Topology) {
	b.Helper()
	g := graph.Reddit.Generate(256, 1)
	p, err := partition.KWay(g, 8, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		b.Fatal(err)
	}
	return rel, topology.DGX1()
}

// BenchmarkAblationSPSTFull is the baseline: the full SPST planner.
func BenchmarkAblationSPSTFull(b *testing.B) {
	rel, topo := ablationRelation(b)
	var cost float64
	for i := 0; i < b.N; i++ {
		_, state, err := core.PlanSPST(rel, topo, 2048, core.SPSTOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cost = state.Cost()
	}
	b.ReportMetric(cost*1e6, "modeled-us")
}

// BenchmarkAblationNoForwarding disables multi-hop relays (isolates
// "utilize fast links").
func BenchmarkAblationNoForwarding(b *testing.B) {
	rel, topo := ablationRelation(b)
	var cost float64
	for i := 0; i < b.N; i++ {
		_, state, err := core.PlanSPST(rel, topo, 2048, core.SPSTOptions{Seed: 1, DisableForwarding: true})
		if err != nil {
			b.Fatal(err)
		}
		cost = state.Cost()
	}
	b.ReportMetric(cost*1e6, "modeled-us")
}

// BenchmarkAblationTreePerSource shares one tree per source GPU (isolates
// per-vertex flexibility and fusion granularity).
func BenchmarkAblationTreePerSource(b *testing.B) {
	rel, topo := ablationRelation(b)
	var cost float64
	for i := 0; i < b.N; i++ {
		_, state, err := core.PlanSPST(rel, topo, 2048, core.SPSTOptions{Seed: 1, TreePerSource: true})
		if err != nil {
			b.Fatal(err)
		}
		cost = state.Cost()
	}
	b.ReportMetric(cost*1e6, "modeled-us")
}

// BenchmarkAblationChunkSize sweeps the planning granularity: chunk 1 is the
// paper's exact per-vertex planning, larger chunks trade balance for speed.
func BenchmarkAblationChunkSize(b *testing.B) {
	rel, topo := ablationRelation(b)
	for _, chunk := range []int{1, 4, 16, 64, 256} {
		b.Run(benchName("chunk", chunk), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				_, state, err := core.PlanSPST(rel, topo, 2048, core.SPSTOptions{Seed: 1, ChunkSize: chunk})
				if err != nil {
					b.Fatal(err)
				}
				cost = state.Cost()
			}
			b.ReportMetric(cost*1e6, "modeled-us")
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationCoordination compares decentralized flags against
// centralized master coordination (§6.1).
func BenchmarkAblationCoordination(b *testing.B) {
	rel, topo := ablationRelation(b)
	plan, _, err := core.PlanSPST(rel, topo, 2048, core.SPSTOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, centralized := range []bool{false, true} {
		name := "decentralized"
		if centralized {
			name = "centralized"
		}
		b.Run(name, func(b *testing.B) {
			cfg := simnet.DefaultConfig(1)
			cfg.Centralized = centralized
			net, err := simnet.New(topo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			var t float64
			for i := 0; i < b.N; i++ {
				res, err := net.RunPlan(plan)
				if err != nil {
					b.Fatal(err)
				}
				t = res.Time
			}
			b.ReportMetric(t*1e6, "sim-us")
		})
	}
}

// BenchmarkAblationHierarchicalPartitioning compares flat vs hierarchical
// partitioning on the two-machine topology by cross-machine traffic. The
// effect shows on sparse, structured graphs; on Reddit-dense graphs nearly
// every vertex crosses machines under any split.
func BenchmarkAblationHierarchicalPartitioning(b *testing.B) {
	g := graph.WebGoogle.Generate(128, 1)
	for _, hierarchical := range []bool{true, false} {
		name := "flat"
		if hierarchical {
			name = "hierarchical"
		}
		b.Run(name, func(b *testing.B) {
			var cross int64
			for i := 0; i < b.N; i++ {
				var p *partition.Partition
				var err error
				if hierarchical {
					p, err = partition.Hierarchical(g, []int{8, 8}, partition.Options{Seed: 1})
				} else {
					p, err = partition.KWay(g, 16, partition.Options{Seed: 1})
				}
				if err != nil {
					b.Fatal(err)
				}
				rel, err := comm.Build(g, p)
				if err != nil {
					b.Fatal(err)
				}
				cross = 0
				for src := 0; src < 16; src++ {
					for dst := 0; dst < 16; dst++ {
						if (src < 8) != (dst < 8) {
							cross += int64(len(rel.Send[src][dst]))
						}
					}
				}
			}
			b.ReportMetric(float64(cross), "cross-machine-sends")
		})
	}
}

// BenchmarkAblationFeatureCaching measures the §3 strategy (1): caching
// remote layer-0 features eliminates the widest allgather of every epoch.
// The metric is modeled communication seconds per epoch with and without
// the cache (Reddit's 602-dim features make the saving large).
func BenchmarkAblationFeatureCaching(b *testing.B) {
	rel, topo := ablationRelation(b)
	net, err := simnet.New(topo, simnet.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	featureBytes := int64(graph.Reddit.FeatureDim) * 4
	plan, _, err := core.PlanSPST(rel, topo, featureBytes, core.SPSTOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Forward layer 0 (features) unless cached, forward layer 1 (hidden),
	// backward layer 1 (hidden): the epoch dgcltrain prices.
	dims := []int{graph.Reddit.FeatureDim, graph.Reddit.HiddenDim}
	epochComm := func(cacheLayer0 bool) float64 {
		fwd, bwd, err := net.EpochComm(plan, dims, cacheLayer0)
		if err != nil {
			b.Fatal(err)
		}
		var t float64
		for l := range fwd {
			t += fwd[l] + bwd[l]
		}
		return t
	}
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t = epochComm(cached)
			}
			b.ReportMetric(t*1e6, "comm-us-per-epoch")
		})
	}
}

// BenchmarkAblationCollectiveVsPlanned quantifies §3's argument against
// regular collectives for GNN embedding passing: a NCCL-style allgather must
// ship every partition to every GPU, while DGCL's plan ships only the
// required remote vertices (plus relay hops).
func BenchmarkAblationCollectiveVsPlanned(b *testing.B) {
	g := graph.WebGoogle.Generate(128, 1)
	p, err := partition.KWay(g, 8, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rel, err := comm.Build(g, p)
	if err != nil {
		b.Fatal(err)
	}
	topo := topology.DGX1()
	plan, _, err := core.PlanSPST(rel, topo, 1024, core.SPSTOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var planned, full int64
	for i := 0; i < b.N; i++ {
		planned = plan.TotalBytes()
		full = collective.FullAllgatherBytes(p.Sizes(), 1024)
	}
	b.ReportMetric(float64(planned)/1e6, "planned-MB")
	b.ReportMetric(float64(full)/1e6, "collective-MB")
	b.ReportMetric(float64(full)/float64(planned), "overshoot-x")
}

// BenchmarkAblationSteiner routes every class along a static-cost Steiner
// tree (the §5.2 strawman) and reports its modeled cost next to SPST's.
func BenchmarkAblationSteiner(b *testing.B) {
	rel, topo := ablationRelation(b)
	m, err := core.NewModel(topo)
	if err != nil {
		b.Fatal(err)
	}
	var cost float64
	for i := 0; i < b.N; i++ {
		plan, err := baselines.PlanSteiner(rel, topo, 2048)
		if err != nil {
			b.Fatal(err)
		}
		cost = core.CostOfPlan(m, plan)
	}
	b.ReportMetric(cost*1e6, "modeled-us")
}
