package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"dgcl/internal/worker"
)

// spawnProcs is the number of dgclworker processes of one spawn: the ranks
// are split evenly over them, and two never exceeds nproc on the sandboxes
// this runs on.
const spawnProcs = 2

// minSpawns is the least number of spawns a wire run takes its deciles over.
const minSpawns = 4

// moduleRoot walks up from the working directory to the go.mod, so the
// benchmark also runs from its own directory (go test does).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", fmt.Errorf("module root: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("module root: no go.mod above the working directory")
		}
		dir = parent
	}
}

// scratchDir makes this invocation's temp dir under <root>/.bench_build: the
// benchmark writes nowhere outside its checkout.
func scratchDir() (dir string, cleanup func(), err error) {
	root, err := moduleRoot()
	if err != nil {
		return "", nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, fmt.Errorf("scratch dir: %w", err)
	}
	dir, err = os.MkdirTemp(base, "dgclperf-")
	if err != nil {
		return "", nil, fmt.Errorf("scratch dir: %w", err)
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// buildWorker compiles cmd/dgclworker into dir, once per invocation.
func buildWorker(ctx context.Context, dir string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "dgclworker")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dgclworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build dgclworker: %w\n%s", err, out)
	}
	return bin, nil
}

// spawnResult is one supervised multi-process run.
type spawnResult struct {
	report *worker.Report
	// setup runs from the first process start to the last member going
	// live (every process built its system and opened its data listener);
	// train from there to the last member's result.
	setup, train time.Duration
	// joinToLive runs from the last join to the last live; doneSpread is
	// the gap between the first and the last member finishing.
	joinToLive, doneSpread time.Duration
	// Children's resource use, summed over the processes.
	rssMB, userMs, sysMs float64
}

// spawn hosts worker.Supervise on an ephemeral loopback port and runs the
// spec on spawnProcs dgclworker subprocesses. On any failure the whole
// process group of every child is killed and the children's stderr is
// returned in the error; on success it is dropped.
func spawn(ctx context.Context, bin string, spec worker.Spec) (*spawnResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("spawn: listen: %w", err)
	}
	defer ln.Close()

	var mu sync.Mutex
	when := map[string][]time.Time{}
	var rep *worker.Report
	var supErr error
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		rep, supErr = worker.Supervise(ctx, ln, worker.SuperviseOptions{
			Workers: spawnProcs,
			Spec:    spec,
			OnEvent: func(ev worker.MemberEvent) {
				mu.Lock()
				when[ev.State] = append(when[ev.State], time.Now())
				mu.Unlock()
			},
		})
	}()

	cmds := make([]*exec.Cmd, 0, spawnProcs)
	stderrs := make([]bytes.Buffer, spawnProcs)
	start := time.Now()
	fail := func(err error) (*spawnResult, error) {
		for _, c := range cmds {
			_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // the group may already be gone
		}
		cancel()
		for _, c := range cmds {
			_ = c.Wait() // reaping only; the cause is err
		}
		<-supDone
		for i := range stderrs {
			if stderrs[i].Len() > 0 {
				err = fmt.Errorf("%w\nworker %d stderr:\n%s", err, i, stderrs[i].String())
			}
		}
		return nil, err
	}
	for i := 0; i < spawnProcs; i++ {
		c := exec.Command(bin, "-connect", ln.Addr().String())
		c.Stderr = &stderrs[i]
		c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := c.Start(); err != nil {
			return fail(fmt.Errorf("spawn: start worker %d: %w", i, err))
		}
		cmds = append(cmds, c)
	}

	select {
	case <-supDone:
	case <-ctx.Done():
		return fail(fmt.Errorf("spawn: %w", ctx.Err()))
	}
	if supErr != nil {
		return fail(fmt.Errorf("spawn: supervise: %w", supErr))
	}
	res := &spawnResult{report: rep}
	for i, c := range cmds {
		if err := c.Wait(); err != nil {
			return fail(fmt.Errorf("spawn: worker %d: %w", i, err))
		}
		ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return fail(errors.New("spawn: no rusage for a finished worker"))
		}
		res.rssMB += float64(ru.Maxrss) / 1024
		res.userMs += ms(c.ProcessState.UserTime())
		res.sysMs += ms(c.ProcessState.SystemTime())
	}

	mu.Lock()
	defer mu.Unlock()
	joined, live, fin := when["joined"], when["live"], when["done"]
	if len(joined) != spawnProcs || len(live) != spawnProcs || len(fin) != spawnProcs {
		return nil, fmt.Errorf("spawn: saw %d joined, %d live, %d done events for %d workers", len(joined), len(live), len(fin), spawnProcs)
	}
	lastLive, lastDone := live[len(live)-1], fin[len(fin)-1]
	res.setup = lastLive.Sub(start)
	res.train = lastDone.Sub(lastLive)
	res.joinToLive = lastLive.Sub(joined[len(joined)-1])
	res.doneSpread = lastDone.Sub(fin[0])
	return res, nil
}

// runWire is the untraced run of a wire-* workload: spawn until the time is
// up and at least minSpawns times, and report deciles over the spawns.
func runWire(ctx context.Context, w workload, spec worker.Spec, seconds float64) (*outcome, error) {
	o := newOutcome()
	ref, err := reference(ctx, spec)
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	bin, err := buildWorker(ctx, dir)
	if err != nil {
		return nil, err
	}
	spec.Epochs = max(refEpochs, int(float64(w.spawnEpochs)*seconds/10))

	var setups, rates, perEpoch, rss []float64
	var first *worker.Report
	deadline := until(seconds)
	for n := 0; n < reps(minSpawns, seconds) || time.Now().Before(deadline); n++ {
		res, err := spawn(ctx, bin, spec)
		if err != nil {
			return nil, err
		}
		o.attempted += spec.Epochs
		checkPrefix(o, fmt.Sprintf("%s spawn %d vs TrainLocal", w.name, n), res.report.Losses, ref.Losses)
		if first == nil {
			first = res.report
		}
		checkPrefix(o, fmt.Sprintf("%s spawn %d vs spawn 0", w.name, n), res.report.Losses, first.Losses)
		if res.report.ModelSum != first.ModelSum {
			o.failf("%s spawn %d: model digest %#x, spawn 0 had %#x", w.name, n, res.report.ModelSum, first.ModelSum)
		}
		setups = append(setups, res.setup.Seconds())
		rates = append(rates, float64(spec.Epochs)/res.train.Seconds())
		perEpoch = append(perEpoch, ms(res.train)/float64(spec.Epochs))
		rss = append(rss, res.rssMB)
	}
	o.metrics["setup_s"] = lowDecile(setups)
	o.metrics["ops_per_s_p90"] = highDecile(rates)
	o.metrics["op_ms_p10"] = lowDecile(perEpoch)
	o.metrics["peak_rss_mb"] = lowDecile(rss)
	return o, nil
}
