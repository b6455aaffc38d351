package main

import (
	"context"
	"fmt"
	"time"

	"dgcl"
	"dgcl/internal/worker"
)

// refEpochs is the length of the bit-identity reference: every training
// workload's first refEpochs losses (and, in-process, the model digest after
// them) must equal worker.TrainLocal's.
const refEpochs = 5

// setupReps is how often a chan or serve run repeats its set-up.
const setupReps = 5

// reps is the repetition floor of a run of the given length: full, or two
// for the short runs of -smoke, which check outputs and schema only.
func reps(full int, seconds float64) int {
	if seconds < 5 {
		return 2
	}
	return full
}

// outcome is what one workload run produced.
type outcome struct {
	attempted int
	// failed counts ops that failed on their own (a query that errored).
	failed int
	// failures lists every failed correctness check; any entry fails every
	// op of the workload.
	failures []string
	metrics  map[string]float64
}

func (o *outcome) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// built is one spec set up in-process.
type built struct {
	sys      *dgcl.System
	model    *dgcl.Model
	features *dgcl.Matrix
	targets  *dgcl.Matrix
}

func sgd(spec worker.Spec) func() dgcl.Optimizer {
	return func() dgcl.Optimizer { return dgcl.NewSGD(float32(spec.LR), 0) }
}

// trainBatch trains epochs more epochs through the public loop and returns
// the per-epoch completion stamps, the losses and the stepped model.
func trainBatch(ctx context.Context, b built, spec worker.Spec, model *dgcl.Model, epochs int) ([]time.Time, []float64, *dgcl.Model, error) {
	stamps := make([]time.Time, 0, epochs)
	res, err := b.sys.Train(ctx, model, b.features, b.targets, dgcl.TrainOptions{
		Epochs:       epochs,
		NewOptimizer: sgd(spec),
		OnEpoch:      func(int, float64) { stamps = append(stamps, time.Now()) },
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("train %d epochs: %w", epochs, err)
	}
	return stamps, res.Losses, res.Model, nil
}

// setupTrain times worker.Build(spec) through the end of the first epoch,
// then finishes the refEpochs-epoch reference prefix.
func setupTrain(ctx context.Context, spec worker.Spec) (built, time.Duration, []float64, *dgcl.Model, error) {
	t0 := time.Now()
	sys, model, features, targets, err := worker.Build(spec)
	if err != nil {
		return built{}, 0, nil, nil, fmt.Errorf("build %s: %w", spec.Dataset, err)
	}
	b := built{sys: sys, model: model, features: features, targets: targets}
	stamps, losses, trained, err := trainBatch(ctx, b, spec, model, refEpochs)
	if err != nil {
		return built{}, 0, nil, nil, err
	}
	return b, stamps[0].Sub(t0), losses, trained, nil
}

// checkPrefix compares the common prefix of two loss sequences bit for bit.
func checkPrefix(o *outcome, what string, got, want []float64) {
	n := min(len(got), len(want))
	for e := 0; e < n; e++ {
		if got[e] != want[e] {
			o.failf("%s: epoch %d loss %v, reference %v", what, e, got[e], want[e])
			return
		}
	}
}

// reference runs the spec's first refEpochs epochs through worker.TrainLocal.
func reference(ctx context.Context, spec worker.Spec) (*worker.Report, error) {
	spec.Epochs = refEpochs
	rep, err := worker.TrainLocal(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return rep, nil
}

// batchMs is the length of one Train call of a chan run: short enough that
// most batches sit inside one state of the machine, long enough that the
// trainer rebuilt per call is noise.
const batchMs = 300

// runChan is the untraced run of a chan-* workload: set up setupReps times,
// check the first epochs against the reference, then train in batches of
// about batchMs until the time is up. Batches continue from the previous
// batch's model, so the losses are one trajectory.
func runChan(ctx context.Context, w workload, spec worker.Spec, seconds float64) (*outcome, error) {
	o := newOutcome()
	ref, err := reference(ctx, spec)
	if err != nil {
		return nil, err
	}
	var b built
	var model *dgcl.Model
	var setups []float64
	for i := 0; i < reps(setupReps, seconds); i++ {
		var d time.Duration
		var losses []float64
		b, d, losses, model, err = setupTrain(ctx, spec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		checkPrefix(o, w.name+" vs TrainLocal", losses, ref.Losses)
		if got := worker.ModelDigest(model); got != ref.ModelSum {
			o.failf("%s: model digest after %d epochs %#x, reference %#x", w.name, refEpochs, got, ref.ModelSum)
		}
	}
	o.attempted = len(setups) * refEpochs

	var gaps, rates []float64
	batch := 20
	deadline := until(seconds)
	for time.Now().Before(deadline) {
		stamps, _, next, err := trainBatch(ctx, b, spec, model, batch)
		if err != nil {
			return nil, err
		}
		model = next
		o.attempted += batch
		g := gapsMs(stamps)
		gaps = append(gaps, g...)
		rates = append(rates, 1000*float64(len(g))/sum(g))
		batch = max(5, min(200, int(batchMs/mean(g))))
	}
	o.metrics["setup_s"] = lowDecile(setups)
	o.metrics["ops_per_s_p90"] = highDecile(rates)
	o.metrics["op_ms_p10"] = lowDecile(gaps)
	return o, nil
}
