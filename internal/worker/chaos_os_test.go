package worker

import (
	"context"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// OS-process chaos battery: the acceptance scenarios of DESIGN.md §15 run
// against the real dgclworker binary. A SIGKILLed worker restarted with
// -rejoin must finish the run bit-identical to the uninterrupted baseline; a
// SIGTERMed worker must drain gracefully (checkpoint flushed, leave sent,
// exit 0) and a replacement must resume the run.

func buildWorkerBin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dgclworker")
	build := exec.Command("go", "build", "-o", bin, "dgcl/cmd/dgclworker")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dgclworker: %v\n%s", err, out)
	}
	return bin
}

// superviseOS starts the supervised coordinator for an OS-process test and
// returns the join address, the event log, and a wait function.
func superviseOS(t *testing.T, ctx context.Context, spec Spec) (string, *eventLog, func() (*Report, error)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &eventLog{}
	var rep *Report
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, runErr = Supervise(ctx, ln, SuperviseOptions{
			Workers:    2,
			Spec:       spec,
			Heartbeat:  100 * time.Millisecond,
			RejoinWait: 2 * time.Minute, // the test restarts the worker itself
			OnEvent:    log.add,
		})
	}()
	return ln.Addr().String(), log, func() (*Report, error) {
		<-done
		return rep, runErr
	}
}

func startWorkerProc(t *testing.T, ctx context.Context, bin, addr, stateDir string, out *strings.Builder, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-connect", addr, "-state", stateDir}, extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// recoveredDuration parses the measured detection→resume time out of the
// "recovered" event's detail line.
func recoveredDuration(t *testing.T, ev MemberEvent) time.Duration {
	t.Helper()
	idx := strings.LastIndex(ev.Detail, ": ")
	if idx < 0 {
		t.Fatalf("recovered event carries no duration: %+v", ev)
	}
	d, err := time.ParseDuration(ev.Detail[idx+2:])
	if err != nil {
		t.Fatalf("recovered event duration %q: %v", ev.Detail[idx+2:], err)
	}
	return d
}

// TestOSProcessKillRestartRejoinBitIdentical is the tentpole acceptance test:
// SIGKILL a real dgclworker mid-epoch, restart it with -rejoin, and the run
// finishes bit-identical to the uninterrupted single-process baseline. The
// measured detection→resume time is logged (go test -v).
func TestOSProcessKillRestartRejoinBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills dgclworker subprocesses")
	}
	bin := buildWorkerBin(t)
	spec := chaosSpec()
	local, err := TrainLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	addr, log, wait := superviseOS(t, ctx, spec)

	dir0, dir1 := t.TempDir(), t.TempDir()
	var out0, out1, out2 strings.Builder
	p0 := startWorkerProc(t, ctx, bin, addr, dir0, &out0)
	p1 := startWorkerProc(t, ctx, bin, addr, dir1, &out1)

	// SIGKILL the victim only once it holds a committed checkpoint; with 6
	// epochs the run is still mid-flight.
	waitForCheckpoint(t, dir1, 2*time.Minute)
	if err := p1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Wait(); err == nil {
		t.Fatal("SIGKILLed worker exited cleanly")
	}
	log.awaitState(t, "dead", time.Minute)

	p2 := startWorkerProc(t, ctx, bin, addr, dir1, &out2, "-rejoin", "-dial-tries", "10")
	rep, err := wait()
	if err != nil {
		t.Fatalf("coordinator: %v\nevents: %+v", err, log.all())
	}
	if err := p0.Wait(); err != nil {
		t.Fatalf("surviving dgclworker: %v\n%s", err, out0.String())
	}
	if err := p2.Wait(); err != nil {
		t.Fatalf("rejoined dgclworker: %v\n%s", err, out2.String())
	}
	if err := sameReport(local, rep); err != nil {
		t.Fatalf("recovered run is not bit-identical to the local baseline: %v", err)
	}
	if !strings.Contains(out2.String(), "final model digest") {
		t.Fatalf("rejoined worker printed no digest:\n%s", out2.String())
	}
	log.awaitState(t, "rejoined", time.Second)
	rec := log.awaitState(t, "recovered", time.Second)
	recovery := recoveredDuration(t, rec)
	if recovery <= 0 {
		t.Fatalf("nonpositive recovery time %v", recovery)
	}
	t.Logf("detection to resumed progress: %v", recovery)
}

// TestOSProcessSIGTERMDrainsGracefully: a SIGTERMed dgclworker finishes its
// in-flight epoch, flushes a checkpoint, announces its leave, prints
// "drained", and exits 0; a replacement started with -rejoin resumes the run
// to a bit-identical finish.
func TestOSProcessSIGTERMDrainsGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals dgclworker subprocesses")
	}
	bin := buildWorkerBin(t)
	spec := chaosSpec()
	local, err := TrainLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	addr, log, wait := superviseOS(t, ctx, spec)

	dir0, dir1 := t.TempDir(), t.TempDir()
	var out0, out1, out2 strings.Builder
	p0 := startWorkerProc(t, ctx, bin, addr, dir0, &out0)
	p1 := startWorkerProc(t, ctx, bin, addr, dir1, &out1)

	waitForCheckpoint(t, dir1, 2*time.Minute)
	if err := p1.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p1.Wait(); err != nil {
		t.Fatalf("SIGTERMed worker did not exit 0: %v\n%s", err, out1.String())
	}
	if !strings.Contains(out1.String(), "drained") {
		t.Fatalf("drained worker never said so:\n%s", out1.String())
	}
	left := log.awaitState(t, "left", time.Minute)
	if left.Epoch < 1 && !strings.Contains(left.Detail, "drained") {
		t.Fatalf("unexpected leave event: %+v", left)
	}
	// The drain flushed durable state the replacement can catch up from.
	if matches, err := filepath.Glob(filepath.Join(dir1, "*", "gen-*.json")); err != nil || len(matches) == 0 {
		t.Fatalf("no checkpoint survived the drain under %s", dir1)
	}

	p2 := startWorkerProc(t, ctx, bin, addr, dir1, &out2, "-rejoin", "-dial-tries", "10")
	rep, err := wait()
	if err != nil {
		t.Fatalf("coordinator: %v\nevents: %+v", err, log.all())
	}
	if err := p0.Wait(); err != nil {
		t.Fatalf("surviving dgclworker: %v\n%s", err, out0.String())
	}
	if err := p2.Wait(); err != nil {
		t.Fatalf("rejoined dgclworker: %v\n%s", err, out2.String())
	}
	if err := sameReport(local, rep); err != nil {
		t.Fatalf("post-drain run is not bit-identical to the local baseline: %v", err)
	}
}
