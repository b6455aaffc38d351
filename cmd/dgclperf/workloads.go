package main

import (
	"context"

	"dgcl/internal/worker"
)

// workload is one named set of inputs. Every workload is a worker.Spec (the
// seed is filled in from -seed), so the same spec can be trained in-process,
// across processes, set up repeatedly or served, and the traced run can push
// it through every layer.
type workload struct {
	name string
	why  string
	spec worker.Spec
	// run is the untraced run: runChan (System.Train over channels), runWire
	// (2 dgclworker processes under worker.Supervise), runSetup (repeated
	// set-up) or runServe (queries against serve.Server).
	run func(ctx context.Context, w workload, spec worker.Spec, seconds float64) (*outcome, error)

	// spawnEpochs is the epoch count of one wire spawn at -seconds 10; it
	// scales with -seconds so four spawns fill the run.
	spawnEpochs int
	// refresh makes the serve workload call UpdateModel every refreshEvery.
	refresh bool
}

const (
	// nominalQPS is the serve nominal-phase rate.
	nominalQPS = 1000
	// sloMs is the serve latency limit: an answer later than this, a shed
	// and a failure all miss it.
	sloMs = 25
	// learningRate is the LR of every training spec.
	learningRate = 0.001
)

// orkutNarrow is the spec with the highest communication share this tree
// reaches: 64,901 remote rows for 11,992 vertices on 8 GPUs, and hidden
// width 8 keeps the CPU matmuls from drowning the allgathers.
var orkutNarrow = worker.Spec{Dataset: "Com-Orkut", Scale: 256, FeatureDim: 32, Model: "GCN", Hidden: 8, Layers: 2, GPUs: 8, LR: learningRate}

// webGoogleServe is the served spec: small enough that a forward is 4 ms, so
// the batcher and the cache, not the kernels, decide the latency.
var webGoogleServe = worker.Spec{Dataset: "Web-Google", Scale: 64, FeatureDim: 16, Model: "GCN", Hidden: 8, Layers: 2, GPUs: 4, LR: learningRate}

var workloads = []workload{
	{
		name: "chan-orkut",
		why:  "highest comm share on the default transport (~27%): runtime executor, pool and chunking do the work, wire does none",
		run:  runChan,
		spec: orkutNarrow,
	},
	{
		name: "chan-reddit",
		why:  "compute-bound (comm ~3.5%): gnn/tensor kernels do the work, so a comm change must show no change here",
		run:  runChan,
		spec: worker.Spec{Dataset: "Reddit", Scale: 128, FeatureDim: 128, Model: "GCN", Hidden: 64, Layers: 2, GPUs: 4, LR: learningRate},
	},
	{
		name:        "wire-narrow",
		why:         "chan-orkut's spec over 2 real dgclworker processes: many small frames, so per-frame cost (syscalls, allocs, credits) dominates",
		run:         runWire,
		spec:        orkutNarrow,
		spawnEpochs: 40,
	},
	{
		name: "wire-wide",
		why:  "same graph at feature width 256 over 2 processes: bytes (checksums, encode/decode copies) dominate, per-frame cost is diluted",
		run:  runWire,
		spec: worker.Spec{Dataset: "Com-Orkut", Scale: 256, FeatureDim: 256, Model: "GCN", Hidden: 8, Layers: 2, GPUs: 8, LR: learningRate},

		spawnEpochs: 10,
	},
	{
		name: "setup-orkut16",
		why:  "16-GPU two-machine fabric set up repeatedly: the only workload where partition and SPST planning are the work (paper Table 8)",
		run:  runSetup,
		spec: worker.Spec{Dataset: "Com-Orkut", Scale: 128, FeatureDim: 32, Model: "GCN", Hidden: 8, Layers: 2, GPUs: 16, LR: learningRate},
	},
	{
		name: "serve-steady",
		why:  "Zipf reads against a cache holding 30% of the keys: cache and admission do the work, the forward path little",
		run:  runServe,
		spec: webGoogleServe,
	},
	{
		name:    "serve-refresh",
		why:     "same reads with UpdateModel every 50 ms: each refresh empties the cache, so batcher and engine forward do the work",
		run:     runServe,
		spec:    webGoogleServe,
		refresh: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric; BENCHMARK.json lists the same names
// and units (TestBenchmarkJSONMatchesTables keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, reported by every workload of
// the untraced run. ops are epochs (chan-*, wire-*), setups (setup-orkut16)
// or answered queries (serve-*); see README.md for the exact definition per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s_p90", "1/s"},
	{"op_ms_p10", "ms"},
	{"peak_rss_mb", "MB"},
}
