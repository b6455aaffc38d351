// Command dgclplan plans the communication of one workload and dumps the
// plan: stages, per-pair volumes, modeled and simulated times, and a
// comparison against the peer-to-peer and swap baselines.
//
//	dgclplan -dataset Reddit -gpus 8 -scale 64
//	dgclplan -dataset Web-Google -gpus 16 -planner p2p -verbose
package main

import (
	"flag"
	"fmt"
	"os"

	"dgcl/internal/baselines"
	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	"dgcl/internal/simnet"
	"dgcl/internal/topology"
)

func main() {
	dataset := flag.String("dataset", "Reddit", "dataset name from Table 4")
	gpus := flag.Int("gpus", 8, "GPU count (1-8 or 16)")
	scale := flag.Int("scale", 64, "dataset downscale factor")
	seed := flag.Int64("seed", 1, "random seed")
	planner := flag.String("planner", "spst", "spst | spst-noforward | p2p")
	chunk := flag.Int("chunk", 16, "SPST vertex chunk size (1 = exact per-vertex)")
	cacheDir := flag.String("plan-cache", "", "content-addressed plan cache directory (empty = no cache)")
	verbose := flag.Bool("verbose", false, "print per-stage transfer lists")
	gantt := flag.Bool("gantt", false, "render the simulated flow timeline as an ASCII chart")
	planOut := flag.String("o", "", "write the plan as JSON to this file")
	traceOut := flag.String("trace", "", "write the simulated flow timeline as CSV to this file")
	flag.Parse()

	cfg := plannerConfig{chunk: *chunk, cacheDir: *cacheDir}
	if err := run(*dataset, *gpus, *scale, *seed, *planner, cfg, *verbose, *gantt, *planOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "dgclplan:", err)
		os.Exit(1)
	}
}

// plannerConfig groups the SPST tuning flags so run() stays readable.
type plannerConfig struct {
	chunk    int
	cacheDir string
}

func run(dataset string, gpus, scale int, seed int64, planner string, cfg plannerConfig, verbose, gantt bool, planOut, traceOut string) error {
	ds, err := graph.DatasetByName(dataset)
	if err != nil {
		return err
	}
	g := ds.Generate(scale, seed)
	stats := g.ComputeStats()
	fmt.Printf("graph: %s at 1/%d scale: %d vertices, %d edges, avg degree %.2f\n",
		ds.Name, scale, stats.Vertices, stats.Edges, stats.AvgDegree)

	topo, err := topology.ForGPUCount(gpus)
	if err != nil {
		return err
	}
	var p *partition.Partition
	if topo.NumMachines() > 1 {
		per := make([]int, topo.NumMachines())
		for d := 0; d < gpus; d++ {
			per[topo.GPUMachine(d)]++
		}
		p, err = partition.Hierarchical(g, per, partition.Options{Seed: seed})
	} else {
		p, err = partition.KWay(g, gpus, partition.Options{Seed: seed})
	}
	if err != nil {
		return err
	}
	fmt.Printf("partition: %d parts, edge cut %d (%.1f%% of edges), balance %.3f\n",
		p.K, p.EdgeCut(g), 100*float64(p.EdgeCut(g))/float64(g.NumEdges()), p.Balance())

	rel, err := comm.Build(g, p)
	if err != nil {
		return err
	}
	fmt.Printf("relation: %d remote vertex requirements\n", rel.TotalRemoteVertices())

	bytesPerVertex := int64(ds.FeatureDim) * 4
	var plan *core.Plan
	switch planner {
	case "spst", "spst-noforward":
		opts := core.SPSTOptions{
			Seed: seed, ChunkSize: cfg.chunk,
			DisableForwarding: planner == "spst-noforward"}
		var state *core.State
		if cfg.cacheDir != "" {
			cache := core.NewPlanCache(cfg.cacheDir)
			plan, state, err = cache.PlanSPST(rel, topo, bytesPerVertex, opts)
			if err != nil {
				return err
			}
			hits, misses := cache.Stats()
			if hits > 0 {
				fmt.Printf("plan cache: hit (key %.16s..., dir %s)\n",
					core.CacheKey(rel, topo, bytesPerVertex, opts), cfg.cacheDir)
			} else {
				fmt.Printf("plan cache: miss, %d plan stored in %s\n", misses, cfg.cacheDir)
			}
		} else {
			plan, state, err = core.PlanSPST(rel, topo, bytesPerVertex, opts)
			if err != nil {
				return err
			}
		}
		fmt.Printf("plan: %s, %d stages, %.0f KB moved, modeled time %.3f ms\n",
			plan.Algorithm, plan.NumStages(), float64(plan.TotalBytes())/1e3, state.Cost()*1e3)
	case "p2p":
		plan = baselines.PlanP2P(rel, bytesPerVertex)
		m, err := core.NewModel(topo)
		if err != nil {
			return err
		}
		fmt.Printf("plan: p2p, %d stages, %.0f KB moved, modeled time %.3f ms\n",
			plan.NumStages(), float64(plan.TotalBytes())/1e3, core.CostOfPlan(m, plan)*1e3)
	default:
		return fmt.Errorf("unknown planner %q", planner)
	}
	if err := plan.Validate(rel); err != nil {
		return fmt.Errorf("plan failed validation: %w", err)
	}

	ps := plan.ComputeStats(rel.Owner)
	fmt.Printf("plan stats: %d transfers, %d vertex sends (%d relayed), max fanout %d, tables %d B\n",
		ps.Transfers, ps.VertexSends, ps.RelayedSends, ps.MaxFanoutPerGPU, ps.TableBytes)

	net, err := simnet.New(topo, simnet.DefaultConfig(seed))
	if err != nil {
		return err
	}
	res, trace, err := net.RunPlanTraced(plan)
	if err != nil {
		return err
	}
	fmt.Printf("simulated allgather: %.3f ms over %d flows (NVLink %.3f ms, others %.3f ms)\n",
		res.Time*1e3, res.Flows, res.NVLinkTime*1e3, res.OtherTime*1e3)
	if gantt {
		fmt.Print(trace.Gantt(60))
	}
	for _, f := range trace.SlowestFlows(3) {
		fmt.Printf("  straggler: stage %d gpu%d->gpu%d, %d B, finished at %.3f ms\n",
			f.Stage, f.Src, f.Dst, f.Bytes, f.End*1e3)
	}
	if planOut != "" {
		f, err := os.Create(planOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := plan.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("plan written to %s\n", planOut)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", traceOut)
	}

	// Baseline comparison.
	p2p := baselines.PlanP2P(rel, bytesPerVertex)
	p2pRes, err := net.RunPlan(p2p)
	if err != nil {
		return err
	}
	sp, err := baselines.PlanSwap(rel, topo, bytesPerVertex)
	if err != nil {
		return err
	}
	swapRes, err := net.RunSwap(sp)
	if err != nil {
		return err
	}
	fmt.Printf("baselines: p2p %.3f ms, swap %.3f ms\n", p2pRes.Time*1e3, swapRes.Time*1e3)

	if verbose {
		for si, st := range plan.Stages {
			fmt.Printf("stage %d: %d transfers\n", si+1, len(st))
			for _, tr := range st {
				fmt.Printf("  gpu%d -> gpu%d: %d vertices\n", tr.Src, tr.Dst, len(tr.Vertices))
			}
		}
	}
	return nil
}
