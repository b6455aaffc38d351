package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dgcl"
	"dgcl/internal/baselines"
	"dgcl/internal/checkpoint"
	"dgcl/internal/comm"
	"dgcl/internal/comm/wire"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/partition"
	dgclruntime "dgcl/internal/runtime"
	"dgcl/internal/serve"
	"dgcl/internal/simnet"
	"dgcl/internal/tensor"
	"dgcl/internal/worker"
)

// The probes below are the traced run's set-up half: the steps
// System.BuildCommInfo performs, called one by one on the layers' public
// functions with a span around each, so set-up time is attributed to the
// layer that spent it.

// lane numbers of the Chrome trace besides the device lanes 0..K-1.
const (
	laneMain  = 100 // the calling goroutine
	laneQuery = 101 // serve queries
)

// probeSetup replays BuildCommInfo's steps on the spec and fills in the
// partition, comm, core, simnet and dgcl metrics. op numbers its spans.
func probeSetup(rec *recorder, o *outcome, spec worker.Spec, dir string) error {
	ds, err := graph.DatasetByName(spec.Dataset)
	if err != nil {
		return fmt.Errorf("setup probe: %w", err)
	}
	topo, err := dgcl.TopologyForGPUCount(spec.GPUs)
	if err != nil {
		return fmt.Errorf("setup probe: %w", err)
	}
	root := rec.begin("dgcl.setup_probe", -1, 0, laneMain)
	defer rec.end(root)
	step := func(name string, fn func() error) (float64, error) {
		id := rec.begin(name, root, 0, laneMain)
		err := fn()
		d := rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %s: %w", name, err)
		}
		return ms(d), nil
	}

	var g *dgcl.Graph
	if o.metrics["graph.generate_ms"], err = step("graph.generate", func() error {
		g = ds.Generate(spec.Scale, spec.Seed)
		return nil
	}); err != nil {
		return err
	}

	var part *partition.Partition
	partMs, err := step("partition.kway", func() error {
		var err error
		if topo.NumMachines() > 1 {
			per := make([]int, topo.NumMachines())
			for d := 0; d < spec.GPUs; d++ {
				per[topo.GPUMachine(d)]++
			}
			part, err = partition.Hierarchical(g, per, partition.Options{Seed: spec.Seed})
		} else {
			part, err = partition.KWay(g, spec.GPUs, partition.Options{Seed: spec.Seed})
		}
		return err
	})
	if err != nil {
		return err
	}
	o.metrics["partition.kway_ms"] = partMs
	o.metrics["partition.edge_cut_frac"] = float64(part.EdgeCut(g)) / float64(g.NumEdges())
	o.metrics["partition.balance"] = part.Balance()

	var rel *comm.Relation
	relMs, err := step("comm.relation", func() error {
		var err error
		rel, err = comm.Build(g, part)
		return err
	})
	if err != nil {
		return err
	}
	o.metrics["comm.relation_ms"] = relMs
	o.metrics["comm.remote_rows"] = float64(rel.TotalRemoteVertices())
	o.metrics["comm.replication_factor"] = float64(int64(g.NumVertices())+rel.TotalRemoteVertices()) / float64(g.NumVertices())

	bytesPerVertex := int64(spec.FeatureDim) * 4
	spst := core.SPSTOptions{Seed: spec.Seed}
	var plan *core.Plan
	var state *core.State
	planMs, err := step("core.plan", func() error {
		var err error
		plan, state, err = core.PlanSPST(rel, topo, bytesPerVertex, spst)
		return err
	})
	if err != nil {
		return err
	}
	o.metrics["core.plan_ms"] = planMs
	o.metrics["core.plan_cost_us"] = state.Cost() * 1e6
	o.metrics["core.plan_stages"] = float64(plan.NumStages())
	transfers := 0
	for _, st := range plan.Stages {
		transfers += len(st)
	}
	o.metrics["core.plan_transfers"] = float64(transfers)
	model, err := core.NewModel(topo)
	if err != nil {
		return fmt.Errorf("setup probe: cost model: %w", err)
	}
	o.metrics["core.cost_vs_p2p"] = core.CostOfPlan(model, baselines.PlanP2P(rel, bytesPerVertex)) / state.Cost()

	cache := core.NewPlanCache(filepath.Join(dir, "plancache"))
	if _, _, err := cache.PlanSPST(rel, topo, bytesPerVertex, spst); err != nil {
		return fmt.Errorf("setup probe: plan cache fill: %w", err)
	}
	if o.metrics["core.plan_warm_ms"], err = step("core.plan_warm", func() error {
		_, _, err := cache.PlanSPST(rel, topo, bytesPerVertex, spst)
		return err
	}); err != nil {
		return err
	}

	var locals []*comm.LocalGraph
	localsMs, err := step("comm.local_graphs", func() error {
		locals = comm.BuildLocalGraphs(g, rel)
		return nil
	})
	if err != nil {
		return err
	}
	o.metrics["comm.local_graphs_ms"] = localsMs
	clusterMs, err := step("runtime.new_cluster", func() error {
		_, err := dgclruntime.NewCluster(rel, locals, plan)
		return err
	})
	if err != nil {
		return err
	}
	o.metrics["runtime.new_cluster_ms"] = clusterMs

	net, err := simnet.New(topo, simnet.DefaultConfig(spec.Seed))
	if err != nil {
		return fmt.Errorf("setup probe: simnet: %w", err)
	}
	fwd, err := net.RunPlan(plan)
	if err != nil {
		return fmt.Errorf("setup probe: simnet forward: %w", err)
	}
	bwd, err := net.RunBackward(plan, true)
	if err != nil {
		return fmt.Errorf("setup probe: simnet backward: %w", err)
	}
	o.metrics["simnet.allgather_pred_us"] = fwd.Time * 1e6
	o.metrics["simnet.bwd_pred_us"] = bwd.Time * 1e6

	// The whole, timed as the one public call users make, against the sum
	// of its parts above.
	wholeMs, err := step("dgcl.build_comm_info", func() error {
		return dgcl.Init(topo, dgcl.Options{Seed: spec.Seed}).BuildCommInfo(g, spec.FeatureDim)
	})
	if err != nil {
		return err
	}
	o.metrics["dgcl.build_comm_info_ms"] = wholeMs
	o.metrics["dgcl.setup_unaccounted_frac"] = (wholeMs - (partMs + relMs + planMs + localsMs + clusterMs)) / wholeMs
	return nil
}

// probeMatmul times the dense kernel at the spec's layer-0 shape on device
// 0's rows: (local rows x feature width) times (feature width x hidden).
func probeMatmul(rec *recorder, o *outcome, b built, spec worker.Spec) {
	rows := b.sys.LocalGraph(0).NumLocal
	a := tensor.New(rows, spec.FeatureDim).FillRandom(spec.Seed)
	w := tensor.New(spec.FeatureDim, spec.Hidden).FillRandom(spec.Seed + 1)
	var durs []float64
	for i := 0; i < 21; i++ {
		id := rec.begin("tensor.matmul", -1, i, laneMain)
		runtime.KeepAlive(tensor.MatMul(a, w))
		durs = append(durs, ms(rec.end(id)))
	}
	flops := 2 * float64(rows) * float64(spec.FeatureDim) * float64(spec.Hidden)
	o.metrics["tensor.matmul_gflops"] = flops / (median(durs) * 1e6)
}

// probeCheckpoint saves and loads the model through the store API.
func probeCheckpoint(rec *recorder, o *outcome, model *dgcl.Model, spec worker.Spec, dir string) error {
	store := checkpoint.NewStore(filepath.Join(dir, "ckpt"))
	snap := &checkpoint.Snapshot{Epoch: 1, Seed: spec.Seed, OptName: dgcl.NewSGD(float32(spec.LR), 0).Name(), Model: model}
	var saves, loads []float64
	for i := 0; i < 5; i++ {
		id := rec.begin("checkpoint.save", -1, i, laneMain)
		_, err := store.Save(snap)
		saves = append(saves, ms(rec.end(id)))
		if err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
		id = rec.begin("checkpoint.load", -1, i, laneMain)
		got, _, err := store.Load()
		loads = append(loads, ms(rec.end(id)))
		if err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
		if worker.ModelDigest(got.Model) != worker.ModelDigest(model) {
			o.failf("checkpoint: loaded model digest differs from the saved model's")
		}
	}
	var payload bytes.Buffer
	if err := snap.Encode(&payload); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	o.metrics["checkpoint.save_ms"] = median(saves)
	o.metrics["checkpoint.load_ms"] = median(loads)
	o.metrics["checkpoint.bytes"] = float64(payload.Len())
	return nil
}

// probeTCP measures the DGS1 round trip on a cached key through
// ServeListener: two connections, each a closed loop.
func probeTCP(ctx context.Context, rec *recorder, o *outcome, srv *serve.Server, seconds float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	var serveErr error
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveErr = srv.ServeListener(ln)
	}()
	stopServing := func() error {
		ln.Close()
		<-served
		return serveErr
	}
	const conns = 2
	const timeout = 5 * time.Second
	if _, err := srv.Query(ctx, 0); err != nil { // make vertex 0 a cached key
		_ = stopServing() // the query error is the cause
		return fmt.Errorf("tcp probe: %w", err)
	}
	deadline := until(seconds)
	rtts := make([][]float64, conns)
	errs := make([]error, conns+1)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs[c] = err
				return
			}
			defer conn.Close()
			for id := uint64(1); time.Now().Before(deadline); id++ {
				sp := rec.begin("serve.tcp_rtt", -1, int(id), laneQuery+1+c)
				err := serve.WriteRequest(conn, &serve.Request{Op: serve.OpQuery, ID: id, Vertices: []int32{0}}, timeout)
				var reply serve.QueryReply
				if err == nil {
					err = wire.ReadControl(conn, &reply, timeout)
				}
				rtt := rec.end(sp)
				if err == nil && (reply.ID != id || len(reply.Errors) != 1 || reply.Errors[0] != "") {
					err = fmt.Errorf("malformed reply to request %d: %+v", id, reply)
				}
				if err != nil {
					errs[c] = err
					return
				}
				rtts[c] = append(rtts[c], ms(rtt)*1000)
			}
		}()
	}
	wg.Wait()
	errs[conns] = stopServing()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	o.metrics["serve.tcp_rtt_p50_us"] = median(append(rtts[0], rtts[1]...))
	return nil
}
