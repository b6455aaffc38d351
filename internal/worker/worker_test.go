package worker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dgcl/internal/gnn"
	"dgcl/internal/testutil"
)

func testSpec() Spec {
	return Spec{
		Dataset:    "Web-Google",
		Scale:      4096,
		FeatureDim: 16,
		Model:      "GCN",
		Hidden:     8,
		Layers:     2,
		GPUs:       4,
		Epochs:     3,
		Seed:       11,
		LR:         0.01,
	}
}

func TestSplitRanksContiguousAndComplete(t *testing.T) {
	cases := []struct {
		k, w int
		want [][]int
	}{
		{4, 2, [][]int{{0, 1}, {2, 3}}},
		{4, 4, [][]int{{0}, {1}, {2}, {3}}},
		{8, 3, [][]int{{0, 1}, {2, 3, 4}, {5, 6, 7}}},
		{4, 1, [][]int{{0, 1, 2, 3}}},
		// K not divisible by W: uneven but contiguous and complete.
		{5, 3, [][]int{{0}, {1, 2}, {3, 4}}},
		{7, 2, [][]int{{0, 1, 2}, {3, 4, 5, 6}}},
		// Single process hosting a single rank.
		{1, 1, [][]int{{0}}},
		// More processes than ranks: the arithmetic leaves early slots empty
		// (Supervise rejects this shape before it ever reaches splitRanks).
		{3, 4, [][]int{nil, {0}, {1}, {2}}},
	}
	for _, tc := range cases {
		if got := splitRanks(tc.k, tc.w); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitRanks(%d, %d) = %v, want %v", tc.k, tc.w, got, tc.want)
		}
	}
}

// runDistributed stands up a coordinator and w in-process workers over
// loopback TCP and returns the coordinator's verified report.
func runDistributed(t *testing.T, spec Spec, w int) *Report {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerReports := make([]*Report, w)
	workerErrs := make([]error, w)
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerReports[i], workerErrs[i] = Run(ctx, WorkerOptions{Coordinator: ln.Addr().String()})
		}(i)
	}
	report, err := Supervise(ctx, ln, SuperviseOptions{Workers: w, Spec: spec})
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for i := 0; i < w; i++ {
		if workerErrs[i] != nil {
			t.Fatalf("worker %d: %v", i, workerErrs[i])
		}
		if err := sameReport(report, workerReports[i]); err != nil {
			t.Fatalf("worker %d report differs from coordinator's: %v", i, err)
		}
	}
	return report
}

// TestDistributedRunBitIdenticalToLocal is the acceptance gate: a training
// run split over worker processes connected by real sockets must produce the
// same per-epoch losses and the same final model weights, bit for bit, as
// the single-process run of the same spec.
func TestDistributedRunBitIdenticalToLocal(t *testing.T) {
	spec := testSpec()
	local, err := TrainLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Losses) != spec.Epochs || local.Losses[0] == 0 {
		t.Fatalf("suspicious local baseline: %+v", local)
	}
	if local.Losses[spec.Epochs-1] >= local.Losses[0] {
		t.Fatalf("local baseline does not converge: %v", local.Losses)
	}

	for _, w := range []int{2, 4} {
		before := testutil.Goroutines()
		got := runDistributed(t, spec, w)
		if err := sameReport(local, got); err != nil {
			t.Fatalf("%d-worker run is not bit-identical to the local run: %v", w, err)
		}
		if !testutil.GoroutinesSettleTo(before, 2*time.Second) {
			t.Fatalf("%d-worker run leaked goroutines: %d before, %d after", w, before, testutil.Goroutines())
		}
	}
}

// TestWorkersRejectDivergentSpecs: a worker meshed into the wrong run must
// refuse at handshake time, not deadlock mid-collective.
func TestCoordinatorRejectsTooManyWorkers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	if _, err := Supervise(context.Background(), ln, SuperviseOptions{Workers: spec.GPUs + 1, Spec: spec}); err == nil {
		t.Fatal("coordinator accepted more workers than GPUs")
	}
}

// TestTwoOSProcesses runs the real dgclworker binary twice against an
// in-process coordinator: one training run spanning N OS processes, the
// acceptance scenario of the multi-process walkthrough.
// TestRetiredModelKindsFailCleanly: GraphSAGE and GAT are gone, so a Spec
// naming one (sent by a coordinator of an older build) and a checkpoint
// naming one (written by an older build) must fail with gnn.ErrUnknownModel
// before anything is built, never reach NewLayer's panic.
func TestRetiredModelKindsFailCleanly(t *testing.T) {
	for _, kind := range []string{"GraphSAGE", "GAT"} {
		t.Run(kind, func(t *testing.T) {
			spec := testSpec()
			spec.Model = kind
			if _, _, _, _, err := Build(spec); !errors.Is(err, gnn.ErrUnknownModel) {
				t.Errorf("Build: err = %v, want gnn.ErrUnknownModel", err)
			}
			m := gnn.NewModel(gnn.GCN, 4, 3, 2, 1)
			m.Kind = gnn.ModelKind(kind)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := gnn.Load(&buf); !errors.Is(err, gnn.ErrUnknownModel) {
				t.Errorf("Load: err = %v, want gnn.ErrUnknownModel", err)
			}
		})
	}
}

func TestTwoOSProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dgclworker subprocesses")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "dgclworker")
	build := exec.Command("go", "build", "-o", bin, "dgcl/cmd/dgclworker")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dgclworker: %v\n%s", err, out)
	}

	spec := testSpec()
	local, err := TrainLocal(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	procs := make([]*exec.Cmd, 2)
	outs := make([]strings.Builder, 2)
	for i := range procs {
		procs[i] = exec.CommandContext(ctx, bin, "-connect", ln.Addr().String())
		procs[i].Stdout = &outs[i]
		procs[i].Stderr = &outs[i]
		if err := procs[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	report, err := Supervise(ctx, ln, SuperviseOptions{Workers: 2, Spec: spec})
	for i, p := range procs {
		if werr := p.Wait(); werr != nil {
			t.Errorf("dgclworker %d: %v\n%s", i, werr, outs[i].String())
		}
	}
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := sameReport(local, report); err != nil {
		t.Fatalf("OS-process run is not bit-identical to the local run: %v", err)
	}
}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}

// sameReport compares two training reports bit for bit: every epoch loss
// and the final model digest.
func sameReport(a, b *Report) error {
	if len(a.Losses) != len(b.Losses) {
		return fmt.Errorf("epoch counts differ: %d vs %d", len(a.Losses), len(b.Losses))
	}
	for e := range a.Losses {
		if a.Losses[e] != b.Losses[e] {
			return fmt.Errorf("epoch %d loss %v vs %v", e, a.Losses[e], b.Losses[e])
		}
	}
	if a.ModelSum != b.ModelSum {
		return fmt.Errorf("final model digests differ: %#x vs %#x", a.ModelSum, b.ModelSum)
	}
	return nil
}
