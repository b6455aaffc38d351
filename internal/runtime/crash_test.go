package runtime

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dgcl/internal/core"
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
	tr := NewCrashTracker(CrashConfig{})
	tr.MarkDown(2)
	// A degraded cluster renumbers survivors compactly; ids maps compact
	// client index -> external device id. Transfers between survivors pass,
	// transfers addressed (in external terms) to the dead device fail even
	// though its compact index has been reused.
	ct := &crashTransport{inner: nil, tracker: tr, ids: []int{0, 1, 3}}
	if got := ct.dev(2); got != 3 {
		t.Fatalf("compact index 2 maps to %d, want external 3", got)
	}
	if tr.Down(3) {
		t.Fatal("external device 3 should be alive")
	}
	if !tr.Down(2) {
		t.Fatal("external device 2 should stay dead across the rebuild")
	}
}

// crashedCluster builds a 4-GPU cluster with a crash tracker, health tracker
// and stats wired the way dgcl.System does.
func crashedCluster(t *testing.T, cfg CrashConfig) (*Cluster, []*tensor.Matrix) {
	t.Helper()
	g := graph.CommunityGraph(300, 10, 4, 0.8, 42)
	c, rel := setup(t, g, 4, 42, 64)
	cols := 3
	local := make([]*tensor.Matrix, 4)
	for d := 0; d < 4; d++ {
		local[d] = tensor.New(len(rel.Local[d]), cols).FillRandom(int64(d))
	}
	c.Stats = NewCommStats(c.K)
	c.Crash = NewCrashTracker(cfg)
	c.Health = NewHealthTracker(0, c.Crash)
	c.Timeout = 30 * time.Second
	return c, local
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
	// The watch/cancel path must abort the collective immediately — far
	// inside any receive deadline — rather than timing every transfer out.
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
	tr := NewCrashTracker(CrashConfig{})
	tr.BeginEpoch(0)
	tr.MarkDown(1)
	toDead := core.Transfer{Src: 0, Dst: 1, Vertices: []int32{0}}
	fromDead := core.Transfer{Src: 1, Dst: 0, Vertices: []int32{0}}
	alive := core.Transfer{Src: 0, Dst: 2, Vertices: []int32{0}}
	ct := NewCrashTransport(NewChanTransport([][]core.Transfer{{toDead, fromDead, alive}}), tr, nil)

	if err := ct.Send(context.Background(), TransferKey{0, 0}, toDead, payload(1)); !errors.Is(err, ErrDeviceDown) {
		t.Fatalf("send to dead device: %v, want ErrDeviceDown", err)
	}
	if _, err := ct.Recv(context.Background(), TransferKey{0, 1}, fromDead); !errors.Is(err, ErrDeviceDown) {
		t.Fatalf("recv from dead device: %v, want ErrDeviceDown", err)
	}
	// Transfers between live devices pass through untouched.
	if err := ct.Send(context.Background(), TransferKey{0, 2}, alive, payload(1)); err != nil {
		t.Fatalf("send between live devices: %v", err)
	}
	if _, err := ct.Recv(context.Background(), TransferKey{0, 2}, alive); err != nil {
		t.Fatalf("recv between live devices: %v", err)
	}
}

func TestCrashWatcherUnblocksPendingRecv(t *testing.T) {
	tr := NewCrashTracker(CrashConfig{})
	tr.BeginEpoch(0)
	pending := core.Transfer{Src: 1, Dst: 0, Vertices: []int32{0}}
	ct := NewCrashTransport(NewChanTransport([][]core.Transfer{{pending}}), tr, nil)

	errCh := make(chan error, 1)
	go func() {
		// No deadline on the context: only the crash watcher can end this.
		_, err := ct.Recv(context.Background(), TransferKey{0, 0}, pending)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receive block
	tr.MarkDown(1)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeviceDown) {
			t.Fatalf("unblocked recv returned %v, want ErrDeviceDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv still blocked 2s after its sender was marked down")
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
