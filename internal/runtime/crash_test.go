package runtime

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dgcl/internal/graph"
	"dgcl/internal/tensor"
	"dgcl/internal/testutil"
)

// Fail-stop battery: a scheduled device death must surface as a structured
// DeviceDownError on every client that touches the dead device, abort the
// collective promptly (no receiver burns its full deadline waiting on a
// corpse), name the dead devices in CollectiveError.Down, and leave no
// goroutines behind. The schedule itself is a pure function of (epoch,
// stage): replaying it yields the same down set every time.

// TestDownDevices pins the one reading of "which devices died" that serve's
// degrade path and the worker's fault blame share: health verdicts first,
// else every distinct DeviceDownError in the per-GPU errors, ascending, and
// nobody for an error that is not a device death.
func TestDownDevices(t *testing.T) {
	dropped := &TransportError{Op: "recv", Err: ErrDropped}
	for _, tc := range []struct {
		name string
		err  error
		want []int
	}{
		{"nil", nil, nil},
		{"not a death", &CollectiveError{Op: "graphAllgather", PerGPU: []error{dropped, nil}}, nil},
		{"bare DeviceDownError", &DeviceDownError{Device: 3}, []int{3}},
		{"health verdicts", &CollectiveError{Op: "graphAllgather",
			PerGPU: []error{&DeviceDownError{Device: 5}, nil}, Down: []int{1, 5}}, []int{1, 5}},
		{"strike verdicts only", &CollectiveError{Op: "graphAllgather",
			PerGPU: []error{&TransportError{Op: "recv", Src: 3, Dst: 0, Attempts: 1, Err: context.DeadlineExceeded}, nil}, Down: []int{3}}, []int{3}},
		{"per-GPU deaths only", &CollectiveError{Op: "graphAllgather",
			PerGPU: []error{&DeviceDownError{Device: 6}, nil, dropped, fmt.Errorf("send: %w", &DeviceDownError{Device: 2}), &DeviceDownError{Device: 6}}}, []int{2, 6}},
		{"wrapped", fmt.Errorf("epoch 4: %w", &CollectiveError{Op: "backward graphAllgather",
			PerGPU: []error{nil, &DeviceDownError{Device: 7}}}), []int{7}},
	} {
		if got := DownDevices(tc.err); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: DownDevices = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParseCrashSchedule(t *testing.T) {
	cfg, err := ParseCrashSchedule("2@3:1, 5@7")
	if err != nil {
		t.Fatal(err)
	}
	want := []CrashEvent{{Device: 2, Epoch: 3, Stage: 1}, {Device: 5, Epoch: 7, Stage: 0}}
	if !reflect.DeepEqual(cfg.Events, want) {
		t.Fatalf("parsed %+v, want %+v", cfg.Events, want)
	}

	for _, bad := range []string{"", "   ", "2", "2@", "@3", "2@3:", "x@3", "2@y", "2@3:z", "-1@3", "2@-3", "2@3:-1"} {
		if _, err := ParseCrashSchedule(bad); err == nil {
			t.Errorf("schedule %q parsed without error", bad)
		}
	}
}

func TestCrashTrackerFiresAsPureFunctionOfEpochAndStage(t *testing.T) {
	run := func() [][]int {
		tr := NewCrashTracker(CrashConfig{Events: []CrashEvent{
			{Device: 0, Epoch: 1, Stage: 0},
			{Device: 1, Epoch: 1, Stage: 2},
			{Device: 2, Epoch: 3, Stage: 99}, // beyond any stage: fires at BeginEpoch(4)
		}})
		var states [][]int
		snap := func() { states = append(states, tr.DownDevices()) }
		tr.BeginEpoch(0)
		tr.advance(5)
		snap() // nothing scheduled for epoch 0
		tr.BeginEpoch(1)
		tr.advance(0)
		snap() // device 0 dies at stage 0
		tr.advance(1)
		snap() // stage 1: still just device 0
		tr.advance(2)
		snap() // device 1 dies at stage 2
		tr.BeginEpoch(3)
		tr.advance(3)
		snap() // device 2's stage 99 not reached
		tr.BeginEpoch(4)
		snap() // missed event from epoch 3 fires on the epoch boundary
		return states
	}
	want := [][]int{{}, {0}, {0}, {0, 1}, {0, 1}, {0, 1, 2}}
	first := run()
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("down-set trace %v, want %v", first, want)
	}
	if second := run(); !reflect.DeepEqual(second, first) {
		t.Fatalf("replay diverged: %v then %v", first, second)
	}
}

func TestCrashTrackerOutlivesRebuildAndMapsExternalIDs(t *testing.T) {
	// A degraded cluster renumbers survivors compactly: three clients whose
	// DeviceIDs are the external devices 0, 1 and 3, with external device 2
	// dead since before the rebuild.
	g := graph.CommunityGraph(300, 10, 3, 0.8, 42)
	c, rel := setup(t, g, 3, 42, 64)
	local := make([]*tensor.Matrix, 3)
	for d := range local {
		local[d] = tensor.New(len(rel.Local[d]), 3).FillRandom(int64(d))
	}
	c.Crash = NewCrashTracker(CrashConfig{})
	c.Crash.MarkDown(2)
	c.Crash.BeginEpoch(0)
	c.DeviceIDs = []int{0, 1, 3}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Compact client 2 is external device 3, which is alive: transfers
	// between survivors pass although compact index 2 names the dead device.
	if _, err := c.AllgatherContext(ctx, local); err != nil {
		t.Fatalf("collective over survivors failed: %v", err)
	}
	if !c.Crash.Down(2) || c.Crash.Down(3) {
		t.Fatalf("down set %v, want external device 2 only", c.Crash.DownDevices())
	}
	// Once external device 3 dies, compact client 2's transfers fail naming
	// it by its external id.
	c.Crash.MarkDown(3)
	_, err := c.AllgatherContext(ctx, local)
	var dde *DeviceDownError
	if !errors.As(err, &dde) || dde.Device != 3 {
		t.Fatalf("error %v, want a DeviceDownError naming external device 3", err)
	}
}

// trainStack installs what dgcl.System.Train wires on every cluster: stats,
// a crash tracker over cfg and a health tracker feeding it.
func trainStack(c *Cluster, cfg CrashConfig) {
	c.Stats = NewCommStats(c.K)
	c.Crash = NewCrashTracker(cfg)
	c.Health = NewHealthTracker(0, c.Crash)
}

// crashedCluster builds a 4-GPU cluster with a crash tracker, health tracker
// and stats wired the way dgcl.System does, and a collective deadline.
func crashedCluster(t *testing.T, cfg CrashConfig) (*Cluster, []*tensor.Matrix) {
	t.Helper()
	g := graph.CommunityGraph(300, 10, 4, 0.8, 42)
	c, rel := setup(t, g, 4, 42, 64)
	cols := 3
	local := make([]*tensor.Matrix, 4)
	for d := 0; d < 4; d++ {
		local[d] = tensor.New(len(rel.Local[d]), cols).FillRandom(int64(d))
	}
	trainStack(c, cfg)
	c.Timeout = 30 * time.Second
	return c, local
}

// crashedGradients returns backward-collective inputs shaped for c's local
// graphs, at the width crashedCluster's forward inputs use.
func crashedGradients(c *Cluster) []*tensor.Matrix {
	grad := make([]*tensor.Matrix, c.K)
	for d, lg := range c.Locals {
		grad[d] = tensor.New(lg.NumLocal+lg.NumRemote, 3).FillRandom(int64(d) + 10)
	}
	return grad
}

// runCollective runs one collective on c in the given direction.
func runCollective(ctx context.Context, c *Cluster, backward bool, local, grad []*tensor.Matrix) error {
	var err error
	if backward {
		_, err = c.BackwardAllgatherContext(ctx, grad)
	} else {
		_, err = c.AllgatherContext(ctx, local)
	}
	return err
}

// requireDeviceDown fails unless err is a *CollectiveError whose chain names
// dev in a *DeviceDownError and whose Down list is exactly [dev].
func requireDeviceDown(t *testing.T, err error, dev int) {
	t.Helper()
	var dde *DeviceDownError
	if !errors.As(err, &dde) || dde.Device != dev {
		t.Fatalf("error %v, want a DeviceDownError naming device %d", err, dev)
	}
	var ce *CollectiveError
	if !errors.As(err, &ce) || !reflect.DeepEqual(ce.Down, []int{dev}) {
		t.Fatalf("error %v, want a CollectiveError with Down [%d]", err, dev)
	}
}

func TestCrashAbortsCollectiveStructuredAndLeakFree(t *testing.T) {
	c, local := crashedCluster(t, CrashConfig{Events: []CrashEvent{{Device: 2, Epoch: 0, Stage: 0}}})
	c.Crash.BeginEpoch(0)

	before := testutil.Goroutines()
	start := time.Now()
	_, err := c.Allgather(local)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("allgather succeeded with device 2 dead from stage 0")
	}
	// The stage loop's crash checks must abort the collective immediately —
	// far inside any receive deadline — rather than timing every transfer out.
	if elapsed > 5*time.Second {
		t.Fatalf("abort took %v; dead-device detection should not wait out deadlines", elapsed)
	}
	if !errors.Is(err, ErrDeviceDown) {
		t.Fatalf("error does not unwrap to ErrDeviceDown: %v", err)
	}
	var dde *DeviceDownError
	if !errors.As(err, &dde) || dde.Device != 2 {
		t.Fatalf("no DeviceDownError naming device 2 in chain: %v", err)
	}
	var ce *CollectiveError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CollectiveError", err)
	}
	if !reflect.DeepEqual(ce.Down, []int{2}) {
		t.Fatalf("CollectiveError.Down = %v, want [2]", ce.Down)
	}
	if !c.Health.Down(2) {
		t.Fatal("health tracker has no verdict for device 2")
	}
	if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
		t.Fatalf("goroutines leaked: %d before, %d after settling window", before, testutil.Goroutines())
	}
}

func TestCrashBeforeScheduledEpochIsHarmless(t *testing.T) {
	c, local := crashedCluster(t, CrashConfig{Events: []CrashEvent{{Device: 1, Epoch: 5, Stage: 0}}})
	c.Crash.BeginEpoch(0)
	if _, err := c.Allgather(local); err != nil {
		t.Fatalf("epoch 0 allgather failed with a crash scheduled for epoch 5: %v", err)
	}
	if down := c.Crash.DownDevices(); len(down) != 0 {
		t.Fatalf("devices %v down before their scheduled epoch", down)
	}
}

func TestCrashTransportFastFailsBothDirections(t *testing.T) {
	c, local := crashedCluster(t, CrashConfig{})
	c.Crash.BeginEpoch(0)
	c.Crash.MarkDown(1)
	grad := crashedGradients(c)
	for _, backward := range []bool{false, true} {
		start := time.Now()
		err := runCollective(context.Background(), c, backward, local, grad)
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("backward=%v: failing took %v; a known-dead device should fail fast", backward, elapsed)
		}
		requireDeviceDown(t, err, 1)
	}
}

// TestCrashWatcherUnblocksPendingRecv schedules each device's death at each
// stage where it has a transfer, in both directions, with no collective
// deadline: only the stage loop's crash checks and abortOnDeviceDown can end
// a receive blocked on the dead device, so a hang here is a missed abort.
// The stage loop makes a receive the abort ended a *TransportError naming
// its endpoints, so a transfer with the dead device that failed for any
// reason must have been blamed on it.
func TestCrashWatcherUnblocksPendingRecv(t *testing.T) {
	probe, _ := crashedCluster(t, CrashConfig{})
	for _, backward := range []bool{false, true} {
		prog, err := probe.program(backward)
		if err != nil {
			t.Fatal(err)
		}
		for stage, st := range prog.stages {
			touched := map[int]bool{}
			for _, tr := range st {
				touched[tr.Src], touched[tr.Dst] = true, true
			}
			for dev := 0; dev < probe.K; dev++ {
				if !touched[dev] {
					continue
				}
				t.Run(fmt.Sprintf("backward=%v/stage%d/dev%d", backward, stage, dev), func(t *testing.T) {
					c, local := crashedCluster(t, CrashConfig{Events: []CrashEvent{{Device: dev, Epoch: 0, Stage: stage}}})
					c.Timeout = 0
					c.Crash.BeginEpoch(0)
					grad := crashedGradients(c)
					before := testutil.Goroutines()
					done := make(chan error, 1)
					go func() { done <- runCollective(context.Background(), c, backward, local, grad) }()
					select {
					case err := <-done:
						requireDeviceDown(t, err, dev)
						for _, pe := range err.(*CollectiveError).PerGPU {
							var te *TransportError
							if errors.As(pe, &te) && (te.Src == dev || te.Dst == dev) {
								t.Fatalf("failed transfer with dead device %d not blamed on it: %v", dev, pe)
							}
						}
					case <-time.After(5 * time.Second):
						t.Fatal("collective still blocked 5s after its scheduled crash")
					}
					if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
						t.Fatalf("goroutines leaked: %d before, %d after settling window", before, testutil.Goroutines())
					}
				})
			}
		}
	}
}

func TestHealthTrackerStrikesAndExoneration(t *testing.T) {
	crash := NewCrashTracker(CrashConfig{})
	h := NewHealthTracker(2, crash)
	deadline := func(self, peer int) error {
		return &TransportError{Op: "recv", Src: peer, Dst: self, Attempts: 1, Err: context.DeadlineExceeded}
	}

	// Round 1: clients 0 and 1 time out against device 3 — one strike, no
	// verdict yet.
	down := h.ObserveCollective([]error{deadline(0, 3), deadline(1, 3), nil, nil}, nil)
	if len(down) != 0 {
		t.Fatalf("verdict after one strike round: %v", down)
	}
	// Round 2: a second consecutive strike reaches the threshold.
	down = h.ObserveCollective([]error{deadline(0, 3), nil, nil, nil}, nil)
	if !reflect.DeepEqual(down, []int{3}) {
		t.Fatalf("down after two strike rounds = %v, want [3]", down)
	}
	if !crash.Down(3) {
		t.Fatal("verdict was not fed back into the crash tracker")
	}

	// A clean round from the suspect itself clears accumulated strikes.
	h2 := NewHealthTracker(2, nil)
	h2.ObserveCollective([]error{deadline(0, 2), nil, nil, nil}, nil)
	h2.ObserveCollective([]error{nil, nil, nil, nil}, nil) // device 2 answers cleanly
	down = h2.ObserveCollective([]error{deadline(0, 2), nil, nil, nil}, nil)
	if len(down) != 0 {
		t.Fatalf("verdict despite an intervening clean round: %v", down)
	}

	// Explicit down evidence is an immediate verdict regardless of strikes,
	// and plain cancellation implicates nobody.
	h3 := NewHealthTracker(2, nil)
	down = h3.ObserveCollective([]error{&DeviceDownError{Device: 1}, context.Canceled, nil, nil}, nil)
	if !reflect.DeepEqual(down, []int{1}) {
		t.Fatalf("down after explicit evidence = %v, want [1]", down)
	}
}

func TestHealthTrackerMapsClientIndicesToExternalIDs(t *testing.T) {
	h := NewHealthTracker(1, nil)
	// Compact client 1 times out against compact client 2; ids maps compact
	// 2 to external device 5.
	err := &TransportError{Op: "recv", Src: 2, Dst: 1, Attempts: 1, Err: context.DeadlineExceeded}
	down := h.ObserveCollective([]error{nil, err, nil}, []int{0, 3, 5})
	if !reflect.DeepEqual(down, []int{5}) {
		t.Fatalf("down = %v, want external id [5]", down)
	}
}
