package worker

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dgcl/internal/testutil"
)

// Membership battery: kill a worker mid-run and the supervised coordinator
// must recover — bit-identically when the worker restarts and rejoins from
// the common checkpoint epoch, and within the degraded-loss band when nobody
// comes back. All in-process, over real loopback sockets.

// eventLog collects MemberEvents from the supervisor's OnEvent callback so
// test goroutines can await transitions.
type eventLog struct {
	mu  sync.Mutex
	evs []MemberEvent
}

func (l *eventLog) add(ev MemberEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) all() []MemberEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]MemberEvent(nil), l.evs...)
}

// awaitState blocks until any member reaches state (worker goroutines race
// to join, so the victim's slot id is not deterministic).
func (l *eventLog) awaitState(t *testing.T, state string, timeout time.Duration) MemberEvent {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		for _, ev := range l.evs {
			if ev.State == state {
				l.mu.Unlock()
				return ev
			}
		}
		l.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no %q event within %v; saw %+v", state, timeout, l.all())
	return MemberEvent{}
}

// waitForCheckpoint blocks until a committed checkpoint manifest appears
// under the worker's state dir (the kill gate: the victim dies only after it
// holds durable state to catch up from).
func waitForCheckpoint(t *testing.T, stateDir string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	pattern := filepath.Join(stateDir, "*", "gen-*.json")
	for time.Now().Before(deadline) {
		if matches, err := filepath.Glob(pattern); err == nil && len(matches) > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no checkpoint appeared under %s within %v", stateDir, timeout)
}

// chaosSpec widens the epoch count so a mid-run kill lands with work left on
// both sides of it (epochs are milliseconds at the test scale; the extra
// epochs buy scheduling slack, not wall-clock pain).
func chaosSpec() Spec {
	spec := testSpec()
	spec.Epochs = 10
	return spec
}

// TestMembershipKillRestartRejoinBitIdentical is the tentpole acceptance
// test, in-process: worker 1 is killed mid-epoch (context cancel tears its
// sockets down exactly like a process death), the coordinator detects the
// loss, a fresh worker rejoins with the persisted identity, every member
// catches up from the newest common checkpoint epoch, and the run finishes
// bit-identical to the uninterrupted single-process baseline.
func TestMembershipKillRestartRejoinBitIdentical(t *testing.T) {
	spec := chaosSpec()
	local, err := TrainLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	before := testutil.Goroutines()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	log := &eventLog{}
	var coordRep *Report
	var coordErr error
	coordDone := make(chan struct{})
	go func() {
		defer close(coordDone)
		coordRep, coordErr = Supervise(ctx, ln, SuperviseOptions{
			Workers:    2,
			Spec:       spec,
			Heartbeat:  50 * time.Millisecond,
			RejoinWait: 60 * time.Second,
			OnEvent:    log.add,
		})
	}()

	dir0, dir1 := t.TempDir(), t.TempDir()
	var w0Rep *Report
	w0Done := make(chan error, 1)
	go func() {
		var err error
		w0Rep, err = Run(ctx, WorkerOptions{Coordinator: addr, StateDir: dir0})
		w0Done <- err
	}()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	victimDone := make(chan error, 1)
	go func() {
		_, err := Run(victimCtx, WorkerOptions{Coordinator: addr, StateDir: dir1})
		victimDone <- err
	}()

	// Kill only once the victim holds a committed checkpoint, so the rejoin
	// has state to catch up from; with 6 epochs the run is still mid-flight.
	waitForCheckpoint(t, dir1, time.Minute)
	kill()
	if err := <-victimDone; err == nil {
		t.Fatal("killed worker reported success")
	}
	log.awaitState(t, "dead", 30*time.Second)

	var rejoinRep *Report
	rejoinDone := make(chan error, 1)
	go func() {
		var err error
		rejoinRep, err = Run(ctx, WorkerOptions{
			Coordinator: addr,
			StateDir:    dir1,
			Rejoin:      true,
			Backoff:     BackoffConfig{Tries: 10},
		})
		rejoinDone <- err
	}()

	<-coordDone
	if coordErr != nil {
		t.Fatalf("coordinator: %v\nevents: %+v", coordErr, log.all())
	}
	if err := <-w0Done; err != nil {
		t.Fatalf("survivor worker: %v", err)
	}
	if err := <-rejoinDone; err != nil {
		t.Fatalf("rejoined worker: %v", err)
	}
	if err := sameReport(local, coordRep); err != nil {
		t.Fatalf("recovered run is not bit-identical to the local baseline: %v", err)
	}
	if err := sameReport(local, w0Rep); err != nil {
		t.Fatalf("survivor's report diverged: %v", err)
	}
	if err := sameReport(local, rejoinRep); err != nil {
		t.Fatalf("rejoined worker's report diverged: %v", err)
	}

	// The recovery had to happen through the membership machine: the slot was
	// reclaimed, training resumed in a later generation, and the catch-up
	// started from a checkpointed epoch, not from scratch.
	log.awaitState(t, "rejoined", time.Second)
	log.awaitState(t, "recovered", time.Second)
	resumed := false
	for _, ev := range log.all() {
		var epoch int
		if ev.State == "live" && ev.Gen >= 2 {
			if _, err := fmt.Sscanf(ev.Detail, "resume epoch %d", &epoch); err == nil && epoch >= 1 {
				resumed = true
			}
		}
	}
	if !resumed {
		t.Fatalf("no post-rejoin generation resumed from a checkpoint epoch >= 1; events: %+v", log.all())
	}
	if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
		t.Fatalf("kill/rejoin run leaked goroutines: %d before, %d after", before, testutil.Goroutines())
	}
}

// TestMembershipDeadWorkerDegradesOntoSurvivors: when nobody rejoins within
// the grace window, the coordinator degrades the dead worker's ranks onto the
// survivors over the live control sockets and the run completes with every
// epoch accounted for, its final loss within the same 2% band the in-process
// degrade path guarantees.
func TestMembershipDeadWorkerDegradesOntoSurvivors(t *testing.T) {
	spec := chaosSpec()
	local, err := TrainLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	log := &eventLog{}
	var coordRep *Report
	var coordErr error
	coordDone := make(chan struct{})
	go func() {
		defer close(coordDone)
		coordRep, coordErr = Supervise(ctx, ln, SuperviseOptions{
			Workers:    2,
			Spec:       spec,
			Heartbeat:  50 * time.Millisecond,
			RejoinWait: 200 * time.Millisecond, // nobody is coming back
			OnEvent:    log.add,
		})
	}()

	dir0, dir1 := t.TempDir(), t.TempDir()
	var w0Rep *Report
	w0Done := make(chan error, 1)
	go func() {
		var err error
		w0Rep, err = Run(ctx, WorkerOptions{Coordinator: addr, StateDir: dir0})
		w0Done <- err
	}()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	victimDone := make(chan error, 1)
	go func() {
		_, err := Run(victimCtx, WorkerOptions{Coordinator: addr, StateDir: dir1})
		victimDone <- err
	}()

	waitForCheckpoint(t, dir1, time.Minute)
	kill()
	<-victimDone

	<-coordDone
	if coordErr != nil {
		t.Fatalf("coordinator: %v\nevents: %+v", coordErr, log.all())
	}
	if err := <-w0Done; err != nil {
		t.Fatalf("survivor worker: %v", err)
	}
	if err := sameReport(coordRep, w0Rep); err != nil {
		t.Fatalf("survivor's report differs from the coordinator's: %v", err)
	}
	log.awaitState(t, "dead", time.Second)
	log.awaitState(t, "degraded", time.Second)
	if len(coordRep.Losses) != spec.Epochs {
		t.Fatalf("degraded run reported %d epochs, want %d", len(coordRep.Losses), spec.Epochs)
	}
	got, want := coordRep.Losses[spec.Epochs-1], local.Losses[spec.Epochs-1]
	if math.Abs(got-want)/math.Abs(want) > 0.02 {
		t.Fatalf("degraded final loss %v strays more than 2%% from the full run's %v", got, want)
	}
}

// TestMembershipDrainLeaveRejoinResumes: a drained worker (the SIGTERM path,
// driven here through the Drain channel) leaves gracefully — in-flight epoch
// finished, checkpoint flushed, leave sent — and a restarted worker resumes
// the run to a bit-identical finish.
func TestMembershipDrainLeaveRejoinResumes(t *testing.T) {
	spec := chaosSpec()
	local, err := TrainLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	log := &eventLog{}
	var coordRep *Report
	var coordErr error
	coordDone := make(chan struct{})
	go func() {
		defer close(coordDone)
		coordRep, coordErr = Supervise(ctx, ln, SuperviseOptions{
			Workers:    2,
			Spec:       spec,
			Heartbeat:  50 * time.Millisecond,
			RejoinWait: 60 * time.Second,
			OnEvent:    log.add,
		})
	}()

	dir0, dir1 := t.TempDir(), t.TempDir()
	w0Done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, WorkerOptions{Coordinator: addr, StateDir: dir0})
		w0Done <- err
	}()
	drain := make(chan struct{})
	drainDone := make(chan error, 1)
	go func() {
		_, err := Run(ctx, WorkerOptions{Coordinator: addr, StateDir: dir1, Drain: drain})
		drainDone <- err
	}()

	waitForCheckpoint(t, dir1, time.Minute)
	close(drain)
	if err := <-drainDone; !errors.Is(err, ErrDrained) {
		t.Fatalf("drained worker returned %v, want ErrDrained", err)
	}
	log.awaitState(t, "left", 30*time.Second)

	var rejoinRep *Report
	rejoinDone := make(chan error, 1)
	go func() {
		var err error
		rejoinRep, err = Run(ctx, WorkerOptions{
			Coordinator: addr,
			StateDir:    dir1,
			Rejoin:      true,
			Backoff:     BackoffConfig{Tries: 10},
		})
		rejoinDone <- err
	}()

	<-coordDone
	if coordErr != nil {
		t.Fatalf("coordinator: %v\nevents: %+v", coordErr, log.all())
	}
	if err := <-w0Done; err != nil {
		t.Fatalf("survivor worker: %v", err)
	}
	if err := <-rejoinDone; err != nil {
		t.Fatalf("rejoined worker: %v", err)
	}
	if err := sameReport(local, coordRep); err != nil {
		t.Fatalf("post-drain run is not bit-identical to the local baseline: %v", err)
	}
	if err := sameReport(local, rejoinRep); err != nil {
		t.Fatalf("rejoined worker's report diverged: %v", err)
	}
}
