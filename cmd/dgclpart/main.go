// Command dgclpart partitions a dataset graph and reports quality metrics
// for the multilevel partitioner against the hash and range baselines,
// including the hierarchical two-level mode used for multi-machine
// topologies.
//
//	dgclpart -dataset Web-Google -k 8
//	dgclpart -dataset Reddit -k 16 -machines 2
package main

import (
	"flag"
	"fmt"
	"os"

	"dgcl/internal/graph"
	"dgcl/internal/partition"
)

func main() {
	dataset := flag.String("dataset", "Web-Google", "dataset name from Table 4")
	k := flag.Int("k", 8, "number of parts")
	machines := flag.Int("machines", 1, "machines for hierarchical partitioning")
	scale := flag.Int("scale", 64, "dataset downscale factor")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if err := run(*dataset, *k, *machines, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dgclpart:", err)
		os.Exit(1)
	}
}

func run(dataset string, k, machines, scale int, seed int64) error {
	ds, err := graph.DatasetByName(dataset)
	if err != nil {
		return err
	}
	g := ds.Generate(scale, seed)
	stats := g.ComputeStats()
	fmt.Printf("graph: %s at 1/%d scale: %d vertices, %d edges\n", ds.Name, scale, stats.Vertices, stats.Edges)

	report := func(name string, p *partition.Partition) {
		q := partition.Evaluate(g, p)
		fmt.Printf("%-12s cut %8d (%5.1f%%)  comm volume %8d  balance %.3f\n",
			name, q.EdgeCut, q.CutPercent, q.CommVolume, q.Balance)
	}
	if machines > 1 {
		per := make([]int, machines)
		for i := 0; i < k; i++ {
			per[i%machines]++
		}
		hp, err := partition.Hierarchical(g, per, partition.Options{Seed: seed})
		if err != nil {
			return err
		}
		report("hierarchical", hp)
	}
	ml, err := partition.KWay(g, k, partition.Options{Seed: seed})
	if err != nil {
		return err
	}
	report("multilevel", ml)
	report("hash", partition.Hash(g, k))
	report("range", partition.Range(g, k))
	return nil
}
