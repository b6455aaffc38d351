package experiments

import (
	"fmt"

	"dgcl/internal/core"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/simnet"
)

// Overlap studies transfer-compute pipelining (the chunked schedule NeuGraph
// pioneered and a natural DGCL extension): if each layer's graphAllgather is
// chunked and interleaved with aggregation compute, the layer costs
// max(comm, compute) instead of comm + compute. The experiment reports the
// per-epoch time of DGCL with the paper's sequential schedule versus the
// pipelined bound, per dataset and model, at 8 GPUs.
func Overlap(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	r := &Report{ID: "overlap",
		Title:  "Sequential vs pipelined transfer-compute (ms, full-size), DGCL at 8 GPUs",
		Header: []string{"Dataset", "Model", "Sequential", "Pipelined", "Saving"}}
	for _, ds := range graph.AllDatasets {
		w, err := buildWorkload(cfg, ds, 8)
		if err != nil {
			return nil, err
		}
		plan, _, err := core.PlanSPST(w.rel, w.topo, int64(ds.FeatureDim)*4, core.SPSTOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		net, err := simnet.New(w.topo, simConfig(cfg))
		if err != nil {
			return nil, err
		}
		maxV, maxE := w.maxLocalLoad()
		gpu := gpuFor(w.topo)
		for _, kind := range gnn.AllModels {
			model := w.newModel(kind)
			// Per-layer comm and compute; compute split evenly per layer
			// (dims are constant after layer 1, close enough for the bound).
			perLayerCompute := gpu.EpochComputeTime(model, maxV, maxE) / float64(cfg.Layers)
			fwd, bwd, err := net.EpochComm(plan, w.layerDims(), false)
			if err != nil {
				return nil, err
			}
			var sequential, pipelined float64
			for l := range fwd {
				comm := fwd[l]
				if l > 0 {
					comm += bwd[l]
				}
				sequential += comm + perLayerCompute
				pipelined += maxf(comm, perLayerCompute)
			}
			saving := 0.0
			if sequential > 0 {
				saving = (1 - pipelined/sequential) * 100
			}
			r.Rows = append(r.Rows, []string{ds.Name, string(kind),
				fullMS(sequential, cfg.Scale), fullMS(pipelined, cfg.Scale),
				fmt.Sprintf("%.0f%%", saving)})
		}
	}
	r.Notes = append(r.Notes,
		"pipelined = per-layer max(comm, compute): the upper bound of NeuGraph-style chunked overlap applied to DGCL's planned exchange",
		"savings approach 50% when comm and compute are balanced; they vanish when either dominates")
	return r, nil
}
