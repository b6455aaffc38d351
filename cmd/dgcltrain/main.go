// Command dgcltrain runs end-to-end distributed GNN training on a simulated
// cluster: the math is real (goroutine workers exchanging float32
// embeddings under the SPST plan), while per-epoch wall time is assembled
// from the device compute model and the network simulator — giving the same
// per-epoch/communication breakdown as the paper's Figure 7 rows, for any
// model/dataset/fabric combination.
//
//	dgcltrain -dataset Reddit -model GCN -gpus 8 -epochs 3
//	dgcltrain -dataset Web-Google -model GIN -gpus 16 -planner p2p
//
// With -listen, dgcltrain instead coordinates a real multi-process run: it
// waits for -workers dgclworker processes to join over TCP, hands each its
// share of the cluster, and verifies every process reports bit-identical
// losses and final weights.
//
//	dgcltrain -listen :7000 -workers 2 -dataset Web-Google -gpus 4
//	dgclworker -connect host:7000        # on each worker machine
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"dgcl"
	"dgcl/internal/device"
	"dgcl/internal/gnn"
	"dgcl/internal/graph"
	"dgcl/internal/simnet"
	"dgcl/internal/worker"
)

// chaosOptions bundles the fault-injection / retry flags.
type chaosOptions struct {
	drop, corrupt, dup float64
	seed               int64
	retries            int
	timeout            time.Duration
}

func (c chaosOptions) enabled() bool { return c.drop > 0 || c.corrupt > 0 || c.dup > 0 }

// recoveryOptions bundles the checkpoint / resume / crash-schedule flags.
type recoveryOptions struct {
	dir    string
	resume bool
	crash  string
}

// Training settings every run shares: model depth, the seed behind the
// graph, partition, plan, weights and features, and the learning rate.
const (
	layers = 2
	seed   = 1
	lr     = 0.001
)

func main() {
	dataset := flag.String("dataset", "Reddit", "dataset from Table 4")
	model := flag.String("model", "GCN", "GCN | CommNet | GIN")
	gpus := flag.Int("gpus", 8, "GPU count (1-8 or 16)")
	scale := flag.Int("scale", 256, "dataset downscale factor")
	epochs := flag.Int("epochs", 5, "training epochs")
	adam := flag.Bool("adam", false, "use Adam instead of SGD")
	planner := flag.String("planner", "spst", "spst | p2p | spst-noforward")
	var chaos chaosOptions
	flag.Float64Var(&chaos.drop, "fault-drop", 0, "transport drop probability per message (chaos)")
	flag.Float64Var(&chaos.corrupt, "fault-corrupt", 0, "transport corruption probability per message (chaos)")
	flag.Float64Var(&chaos.dup, "fault-dup", 0, "transport duplication probability per message (chaos)")
	flag.Int64Var(&chaos.seed, "fault-seed", 1, "fault injection seed")
	flag.IntVar(&chaos.retries, "retries", 8, "retransmission budget per transfer when faults are on")
	flag.DurationVar(&chaos.timeout, "comm-timeout", 30*time.Second, "end-to-end deadline per collective when faults or a crash schedule are on; the only bound on a receive")
	var rec recoveryOptions
	flag.StringVar(&rec.dir, "checkpoint-dir", "", "directory for durable epoch checkpoints (empty = disabled)")
	flag.BoolVar(&rec.resume, "resume", false, "resume from the newest intact checkpoint in -checkpoint-dir")
	flag.StringVar(&rec.crash, "crash", "", "fail-stop schedule dev@epoch[:stage],... (chaos)")
	listen := flag.String("listen", "", "coordinate a multi-process run: accept dgclworker joins on this address")
	workers := flag.Int("workers", 2, "worker processes to wait for in -listen mode")
	var sup supervisionOptions
	flag.DurationVar(&sup.heartbeat, "heartbeat", 0, "worker heartbeat interval in -listen mode (0 = default)")
	flag.IntVar(&sup.downAfter, "down-after", 0, "consecutive missed leases before a worker is judged dead (0 = default)")
	flag.DurationVar(&sup.rejoinWait, "rejoin-wait", 0, "grace window for a restarted worker to rejoin before degrading (0 = default)")
	flag.Parse()

	kind, err := gnn.ParseModelKind(*model)
	if err == nil {
		if *listen != "" {
			err = coordinate(*listen, *workers, *dataset, kind, *gpus, *scale, *epochs, chaos, rec, sup)
		} else {
			err = run(*dataset, kind, *gpus, *scale, *epochs, *adam, *planner, chaos, rec)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgcltrain:", err)
		os.Exit(1)
	}
}

// supervisionOptions bundles the -listen mode membership flags.
type supervisionOptions struct {
	heartbeat  time.Duration
	downAfter  int
	rejoinWait time.Duration
}

// coordinate serves one supervised multi-process training run: the heavy
// lifting — graph build, planning, training — happens in the dgclworker
// processes; this side is pure control plane, supervising the membership
// (heartbeats, rejoin, degrade-onto-survivors).
func coordinate(addr string, workers int, dataset string, kind gnn.ModelKind, gpus, scale, epochs int, chaos chaosOptions, rec recoveryOptions, sup supervisionOptions) error {
	if chaos.enabled() || rec.crash != "" || rec.dir != "" {
		return fmt.Errorf("-listen coordinates real processes; the chaos and checkpoint flags apply to single-process runs only")
	}
	ds, err := graph.DatasetByName(dataset)
	if err != nil {
		return err
	}
	spec := worker.Spec{
		Dataset: dataset,
		Scale:   scale,
		Model:   string(kind),
		Hidden:  ds.HiddenDim,
		Layers:  layers,
		GPUs:    gpus,
		Epochs:  epochs,
		Seed:    seed,
		LR:      lr,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("coordinating %s/%s over %d GPUs: waiting for %d workers on %s\n",
		dataset, kind, gpus, workers, ln.Addr())
	report, err := worker.Supervise(context.Background(), ln, worker.SuperviseOptions{
		Workers:    workers,
		Spec:       spec,
		Heartbeat:  sup.heartbeat,
		DownAfter:  sup.downAfter,
		RejoinWait: sup.rejoinWait,
		OnEvent: func(ev worker.MemberEvent) {
			if ev.Detail != "" {
				fmt.Printf("membership: gen %d worker %d %s (%s)\n", ev.Gen, ev.Member, ev.State, ev.Detail)
				return
			}
			fmt.Printf("membership: gen %d worker %d %s\n", ev.Gen, ev.Member, ev.State)
		},
	})
	if err != nil {
		return err
	}
	for e, loss := range report.Losses {
		fmt.Printf("epoch %d: loss %12.4f\n", e, loss)
	}
	fmt.Printf("all %d workers bit-identical; final model digest %#x\n", workers, report.ModelSum)
	return nil
}

func run(dataset string, kind gnn.ModelKind, gpus, scale, epochs int, adam bool, planner string, chaos chaosOptions, rec recoveryOptions) error {
	ds, err := graph.DatasetByName(dataset)
	if err != nil {
		return err
	}
	g := ds.Generate(scale, seed)
	fmt.Printf("%s at 1/%d scale: %d vertices, %d edges; %s, %d layers, %d GPUs\n",
		ds.Name, scale, g.NumVertices(), g.NumEdges(), kind, layers, gpus)

	topo, err := dgcl.TopologyForGPUCount(gpus)
	if err != nil {
		return err
	}
	sys := dgcl.Init(topo, dgcl.Options{Planner: dgcl.Planner(planner), Seed: seed})
	if err := sys.BuildCommInfo(g, ds.FeatureDim); err != nil {
		return err
	}
	fmt.Printf("plan: %s, %d stages, modeled comm %.3f ms per allgather\n",
		sys.Plan().Algorithm, sys.Plan().NumStages(), sys.PlannedCost()*1e3)

	// Fault injection: the runtime transport retries real losses; the
	// simulated timing stays the fault-free model. A -crash schedule
	// additionally kills whole devices fail-stop; the resilient loop
	// recovers by degrading onto the survivors.
	var crashCfg *dgcl.CrashConfig
	if rec.crash != "" {
		crashCfg, err = dgcl.ParseCrashSchedule(rec.crash)
		if err != nil {
			return err
		}
	}
	if chaos.enabled() || crashCfg != nil {
		retry := dgcl.DefaultRetryPolicy()
		retry.MaxRetries = chaos.retries
		runOpts := dgcl.RunOptions{
			Timeout: chaos.timeout,
			Retry:   &retry,
			Crash:   crashCfg,
		}
		if chaos.enabled() {
			runOpts.Faults = &dgcl.FaultConfig{
				Seed:    chaos.seed,
				Default: dgcl.FaultRates{Drop: chaos.drop, Corrupt: chaos.corrupt, Duplicate: chaos.dup},
			}
			fmt.Printf("chaos: drop %.2f corrupt %.2f dup %.2f, %d retries, %s deadline (simulated timing is the fault-free model)\n",
				chaos.drop, chaos.corrupt, chaos.dup, chaos.retries, chaos.timeout)
		}
		if crashCfg != nil {
			fmt.Printf("crash schedule: %s\n", rec.crash)
		}
		if err := sys.SetRunOptions(runOpts); err != nil {
			return err
		}
	}

	model := dgcl.NewModel(kind, ds.FeatureDim, ds.HiddenDim, layers, seed)
	features := dgcl.RandomFeatures(g.NumVertices(), ds.FeatureDim, seed+1)
	targets := dgcl.RandomFeatures(g.NumVertices(), ds.HiddenDim, seed+2)
	newOptimizer := func() dgcl.Optimizer {
		if adam {
			return gnn.NewAdam(lr)
		}
		return gnn.NewSGD(lr, 0.9)
	}
	fmt.Printf("optimizer: %s\n\n", newOptimizer().Name())

	// Simulated per-epoch timing: compute (device model) + communication
	// (network simulator over the plan).
	gpu := device.V100()
	net, err := simnet.New(topo, simnet.DefaultConfig(seed))
	if err != nil {
		return err
	}
	dims := make([]int, layers)
	dims[0] = ds.FeatureDim
	for l := 1; l < layers; l++ {
		dims[l] = ds.HiddenDim
	}
	// A steady epoch runs no layer-0 exchange: each trainer aggregates the
	// features once, in its first epoch.
	fwd, bwd, err := net.EpochComm(sys.Plan(), dims, true)
	if err != nil {
		return err
	}
	var commPerEpoch float64
	for l := range dims {
		commPerEpoch += fwd[l]
		commPerEpoch += bwd[l]
	}
	maxV, maxE := int64(0), int64(0)
	for d := 0; d < gpus; d++ {
		lg := sys.LocalGraph(d)
		if int64(lg.NumLocal) > maxV {
			maxV = int64(lg.NumLocal)
		}
		if e := lg.G.NumEdges(); e > maxE {
			maxE = e
		}
	}
	computePerEpoch := gpu.EpochComputeTime(model, maxV, maxE)

	res, err := sys.Train(context.Background(), model, features, targets, dgcl.TrainOptions{
		Epochs:        epochs,
		NewOptimizer:  newOptimizer,
		CheckpointDir: rec.dir,
		Resume:        rec.resume,
		OnEpoch: func(e int, loss float64) {
			fmt.Printf("epoch %d: loss %12.4f | simulated %.3f ms (compute %.3f + comm %.3f)\n",
				e, loss, (computePerEpoch+commPerEpoch)*1e3, computePerEpoch*1e3, commPerEpoch*1e3)
		},
		OnRecovery: func(ev dgcl.RecoveryEvent) {
			fmt.Printf("recovery: devices %v down at epoch %d; replanned over %v, resumed at epoch %d (checkpoint generation %d)\n",
				ev.Down, ev.FailedEpoch, ev.Survivors, ev.ResumedEpoch, ev.Generation)
		},
	})
	if err != nil {
		return err
	}
	if res.StartEpoch > 0 {
		fmt.Printf("resumed from epoch %d\n", res.StartEpoch)
	}
	if st := sys.Stats(); st != nil && chaos.enabled() {
		fmt.Printf("\ntransport: %d retransmissions, %d receive timeouts\n",
			st.TotalRetries(), st.TotalTimeouts())
	}
	if len(res.Recoveries) > 0 {
		fmt.Printf("\nrecoveries performed: %d, checkpoints written: %d\n", len(res.Recoveries), res.Checkpoints)
	}
	return nil
}
