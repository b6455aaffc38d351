package dgcl

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"dgcl/internal/graph"
	"dgcl/internal/testutil"
)

// Resilience acceptance battery (ISSUE 4): a seeded fail-stop crash
// mid-training must be detected, recovered by replanning over the survivors
// and restoring the newest checkpoint, and must land in the fault-free loss
// band without leaking goroutines; a kill-and-resume must be bit-identical
// to an uninterrupted run across many seeds; and corrupt checkpoints must
// fall back to the newest intact generation, never panicking.

// resilientFixture builds a small 4-GPU system plus the training inputs.
func resilientFixture(t *testing.T, seed int64) (*System, *graph.Graph, *Model, *Matrix, *Matrix) {
	t.Helper()
	g := WebGoogle.Generate(4096, seed)
	sys := Init(TopologyForGPUCountMust(4), Options{Seed: seed})
	if err := sys.BuildCommInfo(g, 16); err != nil {
		t.Fatal(err)
	}
	model := NewModel(GCN, 16, 8, 2, seed+1)
	features := RandomFeatures(g.NumVertices(), 16, seed+2)
	targets := RandomFeatures(g.NumVertices(), 8, seed+3)
	return sys, g, model, features, targets
}

func trainOpts(epochs int, dir string) TrainOptions {
	return TrainOptions{
		Epochs:        epochs,
		NewOptimizer:  func() Optimizer { return NewSGD(0.01, 0.9) },
		CheckpointDir: dir,
	}
}

func finalWeightsBitIdentical(t *testing.T, a, b *Model, label string) {
	t.Helper()
	if len(a.Layers) != len(b.Layers) {
		t.Fatalf("%s: layer counts differ: %d vs %d", label, len(a.Layers), len(b.Layers))
	}
	for li := range a.Layers {
		ap, bp := a.Layers[li].Params(), b.Layers[li].Params()
		for pi := range ap {
			for j := range ap[pi].Data {
				if ap[pi].Data[j] != bp[pi].Data[j] {
					t.Fatalf("%s: layer %d param %d element %d differs: %v vs %v",
						label, li, pi, j, ap[pi].Data[j], bp[pi].Data[j])
				}
			}
		}
	}
}

func TestChaosCrashRecoveryStaysInLossBand(t *testing.T) {
	const epochs = 6

	// Fault-free baseline.
	sysA, _, modelA, featA, targA := resilientFixture(t, 11)
	base, err := sysA.Train(context.Background(), modelA, featA, targA, trainOpts(epochs, ""))
	if err != nil {
		t.Fatal(err)
	}

	// Same run with device 1 dying at epoch 2 and durable checkpoints.
	before := testutil.Goroutines()
	sysB, _, modelB, featB, targB := resilientFixture(t, 11)
	if err := sysB.SetRunOptions(RunOptions{
		Crash: &CrashConfig{Events: []CrashEvent{{Device: 1, Epoch: 2, Stage: 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	opts := trainOpts(epochs, t.TempDir())
	res, err := sysB.Train(context.Background(), modelB, featB, targB, opts)
	if err != nil {
		t.Fatalf("crashed run did not recover: %v", err)
	}

	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v, want exactly one", res.Recoveries)
	}
	ev := res.Recoveries[0]
	if !reflect.DeepEqual(ev.Down, []int{1}) {
		t.Fatalf("recovery removed %v, want [1]", ev.Down)
	}
	if !reflect.DeepEqual(ev.Survivors, []int{0, 2, 3}) {
		t.Fatalf("survivors = %v, want [0 2 3]", ev.Survivors)
	}
	if ev.FailedEpoch != 2 {
		t.Fatalf("failure detected at epoch %d, want 2", ev.FailedEpoch)
	}
	// Checkpoints were written for epochs 1 and 2 before the crash, so the
	// restore is durable, not in-memory.
	if ev.Generation < 0 {
		t.Fatal("recovery fell back to in-memory state despite durable checkpoints")
	}
	if ev.ResumedEpoch != 2 {
		t.Fatalf("resumed at epoch %d, want 2 (newest checkpoint)", ev.ResumedEpoch)
	}
	if !reflect.DeepEqual(sysB.AliveDevices(), []int{0, 2, 3}) {
		t.Fatalf("alive devices after recovery = %v, want [0 2 3]", sysB.AliveDevices())
	}

	// The degraded run trains the same global vertex set (the dead device's
	// vertices moved to survivors), so its final loss must sit in the
	// fault-free band.
	got, want := res.Losses[epochs-1], base.Losses[epochs-1]
	if math.IsNaN(got) || math.Abs(got-want)/math.Abs(want) > 0.02 {
		t.Fatalf("final loss %v outside the fault-free band around %v", got, want)
	}
	// And it still makes progress: the last loss beats the first.
	if res.Losses[epochs-1] >= res.Losses[0] {
		t.Fatalf("no convergence after recovery: %v -> %v", res.Losses[0], res.Losses[epochs-1])
	}

	if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
		t.Fatalf("goroutines leaked across crash recovery: %d before, %d after", before, testutil.Goroutines())
	}
}

func TestResumeBitIdenticalAcrossSeeds(t *testing.T) {
	const (
		seeds    = 20
		epochs   = 5
		killedAt = 3
	)
	for i := 0; i < seeds; i++ {
		seed := int64(100 + i*13)
		// Uninterrupted run.
		sysA, _, modelA, featA, targA := resilientFixture(t, seed)
		full, err := sysA.Train(context.Background(), modelA, featA, targA, trainOpts(epochs, ""))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Killed after killedAt epochs: the process "dies", a fresh process
		// resumes from the durable checkpoint.
		dir := t.TempDir()
		sysB, _, modelB, featB, targB := resilientFixture(t, seed)
		if _, err := sysB.Train(context.Background(), modelB, featB, targB, trainOpts(killedAt, dir)); err != nil {
			t.Fatalf("seed %d pre-kill: %v", seed, err)
		}
		sysC, _, modelC, featC, targC := resilientFixture(t, seed)
		opts := trainOpts(epochs, dir)
		opts.Resume = true
		resumed, err := sysC.Train(context.Background(), modelC, featC, targC, opts)
		if err != nil {
			t.Fatalf("seed %d resume: %v", seed, err)
		}
		if resumed.StartEpoch != killedAt {
			t.Fatalf("seed %d resumed at epoch %d, want %d", seed, resumed.StartEpoch, killedAt)
		}
		// Per-epoch losses after the resume point are bit-identical float64s,
		// and the final weights match the uninterrupted run exactly.
		for e := killedAt; e < epochs; e++ {
			if resumed.Losses[e] != full.Losses[e] {
				t.Fatalf("seed %d epoch %d loss diverged: %v vs %v", seed, e, resumed.Losses[e], full.Losses[e])
			}
		}
		finalWeightsBitIdentical(t, full.Model, resumed.Model, "resume")
	}
}

func TestResumeRejectsMismatchedConfiguration(t *testing.T) {
	dir := t.TempDir()
	sysA, _, modelA, featA, targA := resilientFixture(t, 5)
	if _, err := sysA.Train(context.Background(), modelA, featA, targA, trainOpts(2, dir)); err != nil {
		t.Fatal(err)
	}
	// Different system seed: resuming would silently break determinism.
	g := WebGoogle.Generate(4096, 5)
	sysB := Init(TopologyForGPUCountMust(4), Options{Seed: 6})
	if err := sysB.BuildCommInfo(g, 16); err != nil {
		t.Fatal(err)
	}
	opts := trainOpts(3, dir)
	opts.Resume = true
	if _, err := sysB.Train(context.Background(), NewModel(GCN, 16, 8, 2, 6),
		RandomFeatures(g.NumVertices(), 16, 7), RandomFeatures(g.NumVertices(), 8, 8), opts); err == nil {
		t.Fatal("resume with a different system seed accepted")
	}
	// Different optimizer: the checkpointed state would not bind.
	sysC, _, modelC, featC, targC := resilientFixture(t, 5)
	badOpt := trainOpts(3, dir)
	badOpt.Resume = true
	badOpt.NewOptimizer = func() Optimizer { return NewAdam(0.01) }
	if _, err := sysC.Train(context.Background(), modelC, featC, targC, badOpt); err == nil {
		t.Fatal("resume with a different optimizer accepted")
	}
}

// payloadFiles returns the store's payload files, oldest generation first.
func payloadFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "gen-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

func TestCorruptCheckpointsFallBackToNewestIntact(t *testing.T) {
	dir := t.TempDir()
	sysA, _, modelA, featA, targA := resilientFixture(t, 21)
	if _, err := sysA.Train(context.Background(), modelA, featA, targA, trainOpts(4, dir)); err != nil {
		t.Fatal(err)
	}
	payloads := payloadFiles(t, dir)
	if len(payloads) != 3 {
		t.Fatalf("store retains %d generations, want 3 (default keep)", len(payloads))
	}
	// Bit-flip the newest payload: resume must fall back one generation (to
	// epoch 3) and continue without panicking.
	newest := payloads[len(payloads)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sysB, _, modelB, featB, targB := resilientFixture(t, 21)
	opts := trainOpts(5, dir)
	opts.Resume = true
	res, err := sysB.Train(context.Background(), modelB, featB, targB, opts)
	if err != nil {
		t.Fatalf("resume over corrupt newest generation: %v", err)
	}
	if res.StartEpoch != 3 {
		t.Fatalf("resumed at epoch %d, want 3 (newest intact generation)", res.StartEpoch)
	}

	// With every payload destroyed, resume degrades to a clean fresh start.
	for _, p := range payloadFiles(t, dir) {
		if err := os.Truncate(p, 3); err != nil {
			t.Fatal(err)
		}
	}
	sysC, _, modelC, featC, targC := resilientFixture(t, 21)
	fresh := trainOpts(2, t.TempDir())
	fresh.Resume = true
	res, err = sysC.Train(context.Background(), modelC, featC, targC, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if res.StartEpoch != 0 {
		t.Fatalf("fresh-start resume began at epoch %d, want 0", res.StartEpoch)
	}
}

func TestDegradeValidation(t *testing.T) {
	sys, _, _, _, _ := resilientFixture(t, 31)
	if err := sys.Degrade([]int{9}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if err := sys.Degrade([]int{0, 1, 2, 3}); err == nil {
		t.Fatal("removing every device accepted")
	}
	if err := sys.Degrade(nil); err != nil {
		t.Fatalf("empty degrade should be a no-op: %v", err)
	}
	if err := sys.Degrade([]int{2}); err != nil {
		t.Fatal(err)
	}
	if got := sys.AliveDevices(); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("alive = %v, want [0 1 3]", got)
	}
	// Degrading an already-removed device is a no-op, not an error.
	if err := sys.Degrade([]int{2}); err != nil {
		t.Fatalf("re-degrading a dead device: %v", err)
	}
	// A second real failure leaves two survivors and training still works.
	if err := sys.Degrade([]int{0}); err != nil {
		t.Fatal(err)
	}
	if got := sys.AliveDevices(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("alive = %v, want [1 3]", got)
	}
}

// TestRecoveryKeepsCommStats pins that a crash-only run keeps its transfer
// counters across a recovery: the rebuilt cluster gets fresh stats (client
// indices are renumbered), and they count the post-recovery epochs.
func TestRecoveryKeepsCommStats(t *testing.T) {
	sys, _, model, feat, targ := resilientFixture(t, 11)
	if err := sys.SetRunOptions(RunOptions{
		Crash: &CrashConfig{Events: []CrashEvent{{Device: 1, Epoch: 2, Stage: 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	opts := trainOpts(4, "")
	var atRecovery *CommStats
	opts.OnRecovery = func(RecoveryEvent) { atRecovery = sys.Stats() }
	res, err := sys.Train(context.Background(), model, feat, targ, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries = %+v, want exactly one", res.Recoveries)
	}
	if atRecovery == nil || sys.Stats() != atRecovery {
		t.Fatalf("stats at recovery %p, at the end %p: want the rebuilt cluster's counters throughout", atRecovery, sys.Stats())
	}
	for d := range sys.AliveDevices() {
		if msgs, _ := atRecovery.Sent(d); msgs == 0 {
			t.Fatalf("survivor client %d sent nothing after the recovery: %v", d, atRecovery)
		}
	}
}

// TestHealthKeepsOneDownSetAcrossRunOptions pins that a detection threshold
// set first and a crash schedule set later share one down set: a verdict is
// what Train recovers from, and the stage loop fast-fails the device.
func TestHealthKeepsOneDownSetAcrossRunOptions(t *testing.T) {
	sys, _, _, feat, _ := resilientFixture(t, 13)
	if err := sys.SetRunOptions(RunOptions{DownAfter: 1}); err != nil {
		t.Fatal(err)
	}
	const deadline = 10 * time.Second
	if err := sys.SetRunOptions(RunOptions{
		Timeout: deadline,
		Crash:   &CrashConfig{Events: []CrashEvent{{Device: 3, Epoch: 99, Stage: 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	if !sys.health.ObserveStrike(2) {
		t.Fatal("one strike did not convict device 2 at DownAfter 1")
	}
	if got := sys.pendingDown(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("pendingDown = %v, want [2]", got)
	}
	local, err := sys.DispatchFeatures(feat)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = sys.GraphAllgather(local)
	if elapsed := time.Since(start); elapsed > deadline/2 {
		t.Fatalf("allgather took %v; a device with a verdict should fail fast", elapsed)
	}
	var dde *DeviceDownError
	if !errors.As(err, &dde) || dde.Device != 2 {
		t.Fatalf("allgather = %v, want a DeviceDownError naming device 2", err)
	}
}

// TestHealthDownAfterAppliesAfterTrain pins that a threshold set after Train
// (which installs the default detector) takes effect.
func TestHealthDownAfterAppliesAfterTrain(t *testing.T) {
	sys, _, model, feat, targ := resilientFixture(t, 17)
	if _, err := sys.Train(context.Background(), model, feat, targ, trainOpts(1, "")); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRunOptions(RunOptions{DownAfter: 1}); err != nil {
		t.Fatal(err)
	}
	if !sys.health.ObserveStrike(1) {
		t.Fatal("one strike did not convict device 1 at DownAfter 1")
	}
	if got := sys.pendingDown(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("pendingDown = %v, want [1]", got)
	}
}
