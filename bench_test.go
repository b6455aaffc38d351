package dgcl

// One testing.B benchmark per table and figure of the paper's evaluation
// (§7). Each bench regenerates its experiment through the shared harness in
// internal/experiments at a reduced graph scale; each report is printed
// once per run (b.Logf), so `go test -bench .` leaves the reproduced tables
// in its output. cmd/dgclbench renders the same reports standalone at any
// scale.

import (
	"sync"
	"testing"

	"dgcl/internal/experiments"
)

// benchCfg keeps bench iterations fast while exercising the full pipeline.
var benchCfg = experiments.Config{Scale: 256, Seed: 1, Layers: 2}

// printOnce renders each experiment's report a single time per bench run.
var printOnce sync.Map

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
			b.Logf("\n%s", r.String())
		}
	}
}

// BenchmarkTable1LinkSpeeds reproduces Table 1 (link bandwidths).
func BenchmarkTable1LinkSpeeds(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure2P2PProfile reproduces Figure 2 (P2P comm overhead vs
// compute across GPU counts).
func BenchmarkFigure2P2PProfile(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkTable2P2PLinkBreakdown reproduces Table 2 (P2P time on NVLink vs
// other links).
func BenchmarkTable2P2PLinkBreakdown(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3QPIContention reproduces Table 3 (QPI bandwidth under
// concurrent flows).
func BenchmarkTable3QPIContention(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4DatasetStats reports the synthesized dataset statistics
// against Table 4.
func BenchmarkTable4DatasetStats(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFigure4ReplicationFactor reproduces Figure 4 (replication factor
// by hops and GPU count).
func BenchmarkFigure4ReplicationFactor(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure7MainComparison reproduces Figure 7 (per-epoch and comm
// time: 3 models x 4 datasets x 4 schemes, 8 GPUs).
func BenchmarkFigure7MainComparison(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8GCNRedditSweep reproduces Figure 8 (GCN on Reddit, 1-16
// GPUs).
func BenchmarkFigure8GCNRedditSweep(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9GINWebGoogleSweep reproduces Figure 9 (GIN on Web-Google,
// 1-16 GPUs).
func BenchmarkFigure9GINWebGoogleSweep(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable5DGCLR reproduces Table 5 (DGCL vs DGCL-R on 16 GPUs).
func BenchmarkTable5DGCLR(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6NoNVLink reproduces Table 6 (graphAllgather on the
// PCIe-only server).
func BenchmarkTable6NoNVLink(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkFigure10CostModel reproduces Figure 10 (cost model vs actual time
// linearity).
func BenchmarkFigure10CostModel(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkTable7LinkBalance reproduces Table 7 (DGCL time breakdown across
// link classes).
func BenchmarkTable7LinkBalance(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkTable8SPSTRuntime reproduces Table 8 (SPST planning wall time).
func BenchmarkTable8SPSTRuntime(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkFigure11TableMemory reproduces Figure 11 (send/receive table
// memory ratio).
func BenchmarkFigure11TableMemory(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkTable9NonAtomic reproduces Table 9 (atomic vs non-atomic backward
// allgather).
func BenchmarkTable9NonAtomic(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkAblationsReport renders the full planner design-choice study
// (see also the individual BenchmarkAblation* benches).
func BenchmarkAblationsReport(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkScalingBeyondPaper projects GCN/Reddit scaling onto 1-4
// IB-switched machines (8-32 GPUs).
func BenchmarkScalingBeyondPaper(b *testing.B) { runExperiment(b, "scaling") }
