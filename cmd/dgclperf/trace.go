package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dgcl"
	"dgcl/internal/collective"
	"dgcl/internal/comm/wire"
	"dgcl/internal/gnn"
	"dgcl/internal/serve"
	"dgcl/internal/tensor"
	"dgcl/internal/worker"
)

// perLayer is what the traced run reports: for every workload, the
// workload's spec pushed through each layer with a span around each call.
// README.md has the dictionary (call timed, end-to-end metric it should
// move, workload it should move it on).
var perLayer = []metricDef{
	{"graph.generate_ms", "ms"},
	{"partition.kway_ms", "ms"},
	{"partition.edge_cut_frac", "ratio"},
	{"partition.balance", "ratio"},
	{"comm.relation_ms", "ms"},
	{"comm.local_graphs_ms", "ms"},
	{"comm.remote_rows", "count"},
	{"comm.replication_factor", "ratio"},
	{"core.plan_ms", "ms"},
	{"core.plan_warm_ms", "ms"},
	{"core.plan_cost_us", "us"},
	{"core.plan_stages", "count"},
	{"core.plan_transfers", "count"},
	{"core.cost_vs_p2p", "ratio"},
	{"simnet.allgather_pred_us", "us"},
	{"simnet.bwd_pred_us", "us"},
	{"simnet.pred_over_measured", "ratio"},
	{"dgcl.build_comm_info_ms", "ms"},
	{"dgcl.setup_unaccounted_frac", "ratio"},
	{"runtime.new_cluster_ms", "ms"},
	{"runtime.compile_ms", "ms"},
	{"runtime.allgather_in_ms", "ms"},
	{"runtime.allgather_hid_ms", "ms"},
	{"runtime.allgather_bwd_ms", "ms"},
	{"runtime.comm_share", "ratio"},
	{"runtime.bytes_per_epoch", "B"},
	{"runtime.transfers_per_epoch", "count"},
	{"runtime.relayed_bytes_per_epoch", "B"},
	{"runtime.allocs_per_epoch", "count"},
	{"runtime.alloc_kb_per_epoch", "KB"},
	{"runtime.serial_epoch_ms", "ms"},
	{"runtime.overlap_gain", "ratio"},
	{"collective.allreduce_ms", "ms"},
	{"gnn.forward_ms", "ms"},
	{"gnn.backward_ms", "ms"},
	{"gnn.loss_ms", "ms"},
	{"gnn.step_ms", "ms"},
	{"gnn.compute_share", "ratio"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"train.epoch_ms_p50", "ms"},
	{"train.epoch_ms_tail", "ms"},
	{"train.epoch_ms_max", "ms"},
	{"train.gc_pause_ms_per_epoch", "ms"},
	{"train.epoch_unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"wire.connect_ms", "ms"},
	{"wire.allgather_in_ms", "ms"},
	{"wire.allgather_hid_ms", "ms"},
	{"wire.allgather_bwd_ms", "ms"},
	{"wire.epoch_ms_p50", "ms"},
	{"wire.comm_share", "ratio"},
	{"wire.over_chan_allgather", "ratio"},
	{"wire.over_chan_epoch", "ratio"},
	{"wire.payload_bytes_per_frame", "B"},
	{"wire.allocs_per_epoch", "count"},
	{"wire.mb_per_s", "MB/s"},
	{"worker.build_ms", "ms"},
	{"worker.join_to_live_ms", "ms"},
	{"worker.mp_epoch_ms", "ms"},
	{"worker.mp_over_loopback", "ratio"},
	{"worker.cpu_ms_per_epoch", "ms"},
	{"worker.sys_share", "ratio"},
	{"worker.done_spread_ms", "ms"},
	{"worker.rss_mb_per_proc", "MB"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"serve.hit_rate", "ratio"},
	{"serve.hit_p50_us", "us"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.query_p99_ms", "ms"},
	{"serve.slo_miss_frac", "ratio"},
	{"serve.goodput_qps", "1/s"},
	{"serve.batch_size_mean", "count"},
	{"serve.flushes_per_s", "1/s"},
	{"serve.flush_full_frac", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.forward_ms", "ms"},
	{"serve.update_model_ms", "ms"},
	{"serve.tcp_rtt_p50_us", "us"},
	{"serve.gen_lateness_p99_ms", "ms"},
}

// decomposedEpoch is Trainer.EpochContext followed by Trainer.Step, made of
// the same public calls in the same order on the trainer's exported fields,
// with one span around each. comm prefixes the allgather spans ("runtime"
// over channels, "wire" over the loopback fabric). Its loss equals
// Trainer.Epoch's bit for bit (TestDecomposedEpochMatchesTrainer).
func decomposedEpoch(ctx context.Context, rec *recorder, tr *dgcl.Trainer, lr float32, comm string, op int) (float64, error) {
	c := tr.Cluster
	layers := len(tr.Models[0].Layers)
	root := rec.begin("train.epoch", -1, op, laneMain)
	defer rec.end(root)
	perRank := func(name string, fn func(d int)) {
		id := rec.begin(name, root, op, laneMain)
		var wg sync.WaitGroup
		for d := 0; d < c.K; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				kid := rec.begin(name+"_rank", id, op, d)
				fn(d)
				rec.end(kid)
			}()
		}
		wg.Wait()
		rec.end(id)
	}

	h := tr.Features
	for l := 0; l < layers; l++ {
		name := comm + ".allgather_hid"
		if l == 0 {
			name = comm + ".allgather_in"
		}
		id := rec.begin(name, root, op, laneMain)
		full, err := c.AllgatherContext(ctx, h)
		rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("decomposed epoch %d: forward allgather layer %d: %w", op, l, err)
		}
		next := make([]*tensor.Matrix, c.K)
		perRank("gnn.forward", func(d int) {
			next[d] = tr.Models[d].Layers[l].Forward(tr.Aggs[d], full[d])
		})
		h = next
	}

	losses := make([]float64, c.K)
	grads := make([]*tensor.Matrix, c.K)
	id := rec.begin("gnn.loss", root, op, laneMain)
	for d := 0; d < c.K; d++ {
		losses[d], grads[d] = gnn.MSELossGrad(h[d], tr.Targets[d])
	}
	rec.end(id)
	loss := tensor.Sum64(losses)

	for l := layers - 1; l >= 0; l-- {
		gradFull := make([]*tensor.Matrix, c.K)
		perRank("gnn.backward", func(d int) {
			layer := tr.Models[d].Layers[l]
			if po, ok := layer.(gnn.ParamsOnlyBackward); ok && l == 0 {
				po.BackwardParams(tr.Aggs[d], grads[d])
				return
			}
			gradFull[d] = layer.Backward(tr.Aggs[d], grads[d])
		})
		if l == 0 {
			break
		}
		id := rec.begin(comm+".allgather_bwd", root, op, laneMain)
		var err error
		grads, err = c.BackwardAllgatherContext(ctx, gradFull)
		rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("decomposed epoch %d: backward allgather layer %d: %w", op, l, err)
		}
	}

	id = rec.begin("collective.allreduce", root, op, laneMain)
	bufs := make([]*tensor.Matrix, c.K)
	for l := 0; l < layers; l++ {
		for p := range tr.Models[0].Layers[l].Grads() {
			for d := 0; d < c.K; d++ {
				bufs[d] = tr.Models[d].Layers[l].Grads()[p]
			}
			if err := collective.RingAllreduce(bufs); err != nil {
				rec.end(id)
				return 0, fmt.Errorf("decomposed epoch %d: allreduce: %w", op, err)
			}
		}
	}
	rec.end(id)

	id = rec.begin("gnn.step", root, op, laneMain)
	tr.Step(lr)
	rec.end(id)
	return loss, nil
}

// epochSums adds up, per epoch (op), the durations of the direct children
// of the train.epoch roots in spans, by name, and returns the root durations
// under "train.epoch" and the roots' self times under "self".
func epochSums(spans []span) map[string]map[int]float64 {
	out := map[string]map[int]float64{}
	add := func(name string, op int, v float64) {
		if out[name] == nil {
			out[name] = map[int]float64{}
		}
		out[name][op] += v
	}
	roots := map[int]bool{}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.name == "train.epoch" {
			roots[s.id] = true
			add("train.epoch", s.op, ms(s.dur()))
			add("self", s.op, ms(self[i]))
		}
	}
	for _, s := range spans {
		if roots[s.parent] {
			add(s.name, s.op, ms(s.dur()))
		}
	}
	return out
}

// steady returns the per-epoch values of name for every epoch but the first
// of the pass, which pays for compiling the routing programs.
func steady(sums map[string]map[int]float64, name string, first int) []float64 {
	byOp := sums[name]
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		if op != first {
			ops = append(ops, op)
		}
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

// trajectory is a loss sequence with the replica-0 model digest after every
// epoch. The traced run's in-process training is one trajectory; the wire
// pass and the spawn must reproduce its prefix bit for bit.
type trajectory struct {
	losses  []float64
	digests []uint64
}

func (t *trajectory) record(loss float64, tr *dgcl.Trainer) {
	t.losses = append(t.losses, loss)
	t.digests = append(t.digests, worker.ModelDigest(tr.Models[0]))
}

// checkAgainst compares the common prefix with want, losses and digests.
func (t *trajectory) checkAgainst(o *outcome, what string, want *trajectory) {
	checkPrefix(o, what, t.losses, want.losses)
	for e := 0; e < min(len(t.digests), len(want.digests)); e++ {
		if t.digests[e] != want.digests[e] {
			o.failf("%s: model digest after epoch %d %#x, reference %#x", what, e, t.digests[e], want.digests[e])
			return
		}
	}
}

// tracePass runs decomposed epochs on tr until the time is up (at least
// three, so a steady epoch exists), records them in traj and returns the
// per-epoch sums of the pass's spans. Epochs are numbered from firstOp.
func tracePass(ctx context.Context, rec *recorder, tr *dgcl.Trainer, spec worker.Spec, comm string, firstOp int, seconds float64, traj *trajectory) (map[string]map[int]float64, error) {
	from := rec.count()
	for op, deadline := firstOp, until(seconds); op < firstOp+3 || time.Now().Before(deadline); op++ {
		loss, err := decomposedEpoch(ctx, rec, tr, float32(spec.LR), comm, op)
		if err != nil {
			return nil, err
		}
		traj.record(loss, tr)
	}
	spans, err := rec.snapshot(from)
	if err != nil {
		return nil, err
	}
	return epochSums(spans), nil
}

// plainEpochs runs untraced epochs (Trainer.EpochContext and Step) until the
// time is up (at least three) and returns their durations.
func plainEpochs(ctx context.Context, tr *dgcl.Trainer, spec worker.Spec, seconds float64, traj *trajectory) ([]float64, error) {
	var durs []float64
	for deadline := until(seconds); len(durs) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		loss, err := tr.EpochContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("untraced epoch: %w", err)
		}
		tr.Step(float32(spec.LR))
		durs = append(durs, ms(time.Since(t0)))
		traj.record(loss, tr)
	}
	return durs, nil
}

// pass is what the later probes need of an epoch pass: the steady epoch
// median and the sum of the three allgather medians.
type pass struct {
	epochMs, allgatherMs float64
}

// commMetrics fills in the allgather metrics of one pass under prefix.
func commMetrics(o *outcome, sums map[string]map[int]float64, prefix string, firstOp int) pass {
	epochs := steady(sums, "train.epoch", firstOp)
	p := pass{epochMs: median(epochs)}
	var comm float64
	for _, kind := range []string{"in", "hid", "bwd"} {
		v := steady(sums, prefix+".allgather_"+kind, firstOp)
		o.metrics[prefix+".allgather_"+kind+"_ms"] = median(v)
		p.allgatherMs += median(v)
		comm += sum(v)
	}
	o.metrics[prefix+".comm_share"] = comm / sum(epochs)
	return p
}

// probeChannels trains over the channel transport: decomposed, then
// untraced, then serial epochs of one trainer, so the losses are one
// trajectory. It fills in the runtime, collective, gnn and train metrics.
func probeChannels(ctx context.Context, rec *recorder, o *outcome, b built, tr *dgcl.Trainer, spec worker.Spec, seconds float64, traj *trajectory) (pass, error) {
	sums, err := tracePass(ctx, rec, tr, spec, "runtime", 0, 0.2*seconds, traj)
	if err != nil {
		return pass{}, err
	}
	ch := commMetrics(o, sums, "runtime", 0)
	o.metrics["runtime.compile_ms"] = sums["runtime.allgather_in"][0] - o.metrics["runtime.allgather_in_ms"]
	o.metrics["simnet.pred_over_measured"] = o.metrics["simnet.allgather_pred_us"] / (1000 * o.metrics["runtime.allgather_in_ms"])
	o.metrics["collective.allreduce_ms"] = median(steady(sums, "collective.allreduce", 0))
	var compute float64
	for _, part := range []string{"forward", "backward", "loss", "step"} {
		v := steady(sums, "gnn."+part, 0)
		o.metrics["gnn."+part+"_ms"] = median(v)
		compute += sum(v)
	}
	epochs := sum(steady(sums, "train.epoch", 0))
	o.metrics["gnn.compute_share"] = compute / epochs
	o.metrics["train.epoch_unaccounted_frac"] = sum(steady(sums, "self", 0)) / epochs

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := plainEpochs(ctx, tr, spec, 0.15*seconds, traj)
	if err != nil {
		return pass{}, err
	}
	runtime.ReadMemStats(&after)
	n := float64(len(plain))
	_, tail := tailPercentile(plain)
	o.metrics["train.epoch_ms_p50"] = median(plain)
	o.metrics["train.epoch_ms_tail"] = tail
	o.metrics["train.epoch_ms_max"] = quantile(sortedCopy(plain), 1)
	o.metrics["train.gc_pause_ms_per_epoch"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n
	o.metrics["runtime.allocs_per_epoch"] = float64(after.Mallocs-before.Mallocs) / n
	o.metrics["runtime.alloc_kb_per_epoch"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	o.metrics["trace.overhead_frac"] = ch.epochMs/median(plain) - 1

	b.sys.SetOverlapPolicy(true, 0)
	serial, err := plainEpochs(ctx, tr, spec, 0.1*seconds, traj)
	b.sys.SetOverlapPolicy(false, 0)
	if err != nil {
		return pass{}, err
	}
	o.metrics["runtime.serial_epoch_ms"] = median(serial)
	o.metrics["runtime.overlap_gain"] = median(serial) / median(plain)
	return ch, nil
}

// probeWire trains the same spec from the same initial model with every
// cross-rank transfer crossing a loopback socket and the transfer counters
// on. It fills in the wire metrics and the exact per-epoch counts.
func probeWire(ctx context.Context, rec *recorder, o *outcome, b built, spec worker.Spec, seconds float64, traj *trajectory, ch pass) (pass, error) {
	id := rec.begin("wire.connect", -1, 0, laneMain)
	fab, err := wire.NewLoopbackFabric(spec.GPUs, wire.Config{ClusterID: "dgclperf", PlanSum: wire.PlanDigest(b.sys.Plan())})
	o.metrics["wire.connect_ms"] = ms(rec.end(id))
	if err != nil {
		return pass{}, fmt.Errorf("loopback fabric: %w", err)
	}
	defer fab.Close()
	if err := b.sys.SetRunOptions(dgcl.RunOptions{Transport: fab, CollectStats: true}); err != nil {
		return pass{}, fmt.Errorf("install fabric: %w", err)
	}
	tr, err := b.sys.NewTrainer(b.model, b.features, b.targets)
	if err != nil {
		return pass{}, fmt.Errorf("wire trainer: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const firstOp = 1 << 20 // keeps the wire pass's epoch numbers apart from the channel pass's
	var wireTraj trajectory
	sums, err := tracePass(ctx, rec, tr, spec, "wire", firstOp, 0.15*seconds, &wireTraj)
	if err != nil {
		return pass{}, err
	}
	runtime.ReadMemStats(&after)
	wireTraj.checkAgainst(o, "loopback wire vs channels", traj)
	o.attempted += len(wireTraj.losses)
	wp := commMetrics(o, sums, "wire", firstOp)

	n := float64(len(wireTraj.losses))
	stats := b.sys.Stats()
	var transfers, relayed int64
	for d := 0; d < spec.GPUs; d++ {
		_, msgs := stats.Sent(d)
		transfers += msgs
		relayed += stats.Relayed(d)
	}
	bytes := float64(stats.TotalBytes())
	o.metrics["runtime.bytes_per_epoch"] = bytes / n
	o.metrics["runtime.transfers_per_epoch"] = float64(transfers) / n
	o.metrics["runtime.relayed_bytes_per_epoch"] = float64(relayed) / n
	o.metrics["wire.epoch_ms_p50"] = wp.epochMs
	o.metrics["wire.over_chan_epoch"] = wp.epochMs / ch.epochMs
	o.metrics["wire.over_chan_allgather"] = wp.allgatherMs / ch.allgatherMs
	o.metrics["wire.payload_bytes_per_frame"] = bytes / float64(transfers)
	o.metrics["wire.allocs_per_epoch"] = float64(after.Mallocs-before.Mallocs) / n
	o.metrics["wire.mb_per_s"] = bytes / n / 1e6 / (wp.allgatherMs / 1000)
	fab.Close()
	if err := b.sys.SetRunOptions(dgcl.RunOptions{CollectStats: true}); err != nil {
		return pass{}, fmt.Errorf("remove fabric: %w", err)
	}
	return wp, nil
}

// probeSpawn runs the spec on two real processes for as many epochs as fit a
// tenth of the run, never more than the in-process trajectory covers.
func probeSpawn(ctx context.Context, o *outcome, dir string, spec worker.Spec, seconds float64, traj *trajectory, ch, wp pass) error {
	bin, err := buildWorker(ctx, dir)
	if err != nil {
		return err
	}
	spec.Epochs = min(len(traj.losses), max(refEpochs, int(0.1*seconds*1000/(2*ch.epochMs))))
	sp, err := spawn(ctx, bin, spec)
	if err != nil {
		return err
	}
	epochs := float64(spec.Epochs)
	o.attempted += spec.Epochs
	checkPrefix(o, "2-process run vs in-process", sp.report.Losses, traj.losses)
	if want := traj.digests[spec.Epochs-1]; sp.report.ModelSum != want {
		o.failf("2-process model digest after %d epochs %#x, in-process %#x", spec.Epochs, sp.report.ModelSum, want)
	}
	o.metrics["worker.join_to_live_ms"] = ms(sp.joinToLive)
	o.metrics["worker.mp_epoch_ms"] = ms(sp.train) / epochs
	o.metrics["worker.mp_over_loopback"] = ms(sp.train) / epochs / wp.epochMs
	o.metrics["worker.cpu_ms_per_epoch"] = (sp.userMs + sp.sysMs) / epochs
	o.metrics["worker.sys_share"] = sp.sysMs / (sp.userMs + sp.sysMs)
	o.metrics["worker.done_spread_ms"] = ms(sp.doneSpread)
	o.metrics["worker.rss_mb_per_proc"] = sp.rssMB / spawnProcs
	return nil
}

// runTraced is the traced run of any workload: it pushes the workload's spec
// through every layer, one span per call, and reports the per-layer metrics.
// The spans go to .bench_build/trace-<workload>.json as a Chrome trace.
func runTraced(ctx context.Context, w workload, spec worker.Spec, seconds float64) (*outcome, error) {
	o := newOutcome()
	rec := newRecorder()
	dir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	ref, err := reference(ctx, spec)
	if err != nil {
		return nil, err
	}
	if err := probeSetup(rec, o, spec, dir); err != nil {
		return nil, err
	}

	id := rec.begin("worker.build", -1, 0, laneMain)
	sys, model, features, targets, err := worker.Build(spec)
	o.metrics["worker.build_ms"] = ms(rec.end(id))
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", spec.Dataset, err)
	}
	b := built{sys: sys, model: model, features: features, targets: targets}
	probeMatmul(rec, o, b, spec)

	tr, err := sys.NewTrainer(model, features, targets)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	var traj trajectory
	ch, err := probeChannels(ctx, rec, o, b, tr, spec, seconds, &traj)
	if err != nil {
		return nil, err
	}
	checkPrefix(o, "in-process epochs vs TrainLocal", traj.losses, ref.Losses)
	o.attempted = len(traj.losses)
	wp, err := probeWire(ctx, rec, o, b, spec, seconds, &traj, ch)
	if err != nil {
		return nil, err
	}
	if err := probeSpawn(ctx, o, dir, spec, seconds, &traj, ch, wp); err != nil {
		return nil, err
	}

	b.model = tr.Models[0] // the trained weights, for the checkpoint and serve probes
	if err := probeCheckpoint(rec, o, b.model, spec, dir); err != nil {
		return nil, err
	}
	if err := probeServe(ctx, rec, o, w.refresh, b, spec.Seed, seconds); err != nil {
		return nil, err
	}

	spans, err := rec.snapshot(0)
	if err != nil {
		return nil, err
	}
	if err := writeChromeTrace(filepath.Join(filepath.Dir(dir), "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	return o, nil
}

// probeServe serves the trained model of the traced run: row check, idle
// forward time, the three load phases with a span around every query, model
// update time and the TCP round trip.
func probeServe(ctx context.Context, rec *recorder, o *outcome, refresh bool, b built, seed int64, seconds float64) error {
	srv, err := serve.New(b.sys, b.model, b.features, serve.Config{CacheEntries: serveCacheEntries})
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	defer srv.Close()
	if err := checkServedRows(ctx, o, b, srv, seed); err != nil {
		return err
	}
	tr, err := b.sys.NewTrainer(b.model, b.features, b.targets)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	var forwards []float64
	for i := 0; i < 5; i++ {
		id := rec.begin("serve.forward", -1, i, laneMain)
		_, err := tr.ForwardContext(ctx, b.features.Rows)
		forwards = append(forwards, ms(rec.end(id)))
		if err != nil {
			return fmt.Errorf("serve probe: forward: %w", err)
		}
	}
	o.metrics["serve.forward_ms"] = median(forwards)

	l, err := runLoad(ctx, rec, refresh, b, srv, seed, 0.25*seconds)
	if err != nil {
		return err
	}
	nom := l.nominal
	o.attempted += l.attempted()
	o.failed += l.failed()
	var hitUs, missMs, lateMs []float64
	for _, q := range nom.samples {
		lateMs = append(lateMs, q.sentMs)
		switch {
		case q.state != queryAnswered:
		case q.cached:
			hitUs = append(hitUs, 1000*q.serviceMs())
		default:
			missMs = append(missMs, q.serviceMs())
		}
	}
	answered := sortedCopy(nom.answered())
	o.metrics["serve.hit_rate"] = float64(len(hitUs)) / float64(max(len(answered), 1))
	o.metrics["serve.hit_p50_us"] = median(hitUs)
	o.metrics["serve.miss_p50_ms"] = median(missMs)
	o.metrics["serve.miss_p99_ms"] = quantile(sortedCopy(missMs), 0.99)
	o.metrics["serve.query_p99_ms"] = quantile(answered, 0.99)
	o.metrics["serve.slo_miss_frac"] = float64(nom.missed()) / float64(len(nom.samples))
	o.metrics["serve.shed_frac"] = float64(nom.count(func(q querySample) bool { return q.state == queryShed })) / float64(len(nom.samples))
	o.metrics["serve.gen_lateness_p99_ms"] = quantile(sortedCopy(lateMs), 0.99)
	o.metrics["serve.goodput_qps"] = l.saturation.goodput()
	flushes := float64(l.after.Flushes - l.before.Flushes)
	o.metrics["serve.flushes_per_s"] = flushes * nominalQPS / float64(len(nom.samples))
	o.metrics["serve.flush_full_frac"] = float64(l.after.FlushFull-l.before.FlushFull) / max(flushes, 1)
	o.metrics["serve.batch_size_mean"] = float64(l.after.Misses-l.before.Misses) / max(flushes, 1)

	updates := l.refreshMs
	for i := 0; i < 3 && !refresh; i++ {
		id := rec.begin("serve.update_model", -1, i, laneMain)
		err := srv.UpdateModel(b.model)
		updates = append(updates, ms(rec.end(id)))
		if err != nil {
			return fmt.Errorf("serve probe: update model: %w", err)
		}
	}
	o.metrics["serve.update_model_ms"] = median(updates)
	return probeTCP(ctx, rec, o, srv, 0.05*seconds)
}
