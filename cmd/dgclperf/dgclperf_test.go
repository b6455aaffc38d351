package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dgcl/internal/worker"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		q     float64
		value float64
	}{
		{100000, 0.9999, 99990},
		{1000, 0.99, 990},
		{999, 0.95, 950}, // p99 would leave 9 beyond
		{100, 0.90, 90},
		{40, 0.75, 30},
		{39, 0.5, 20}, // no percentile has ten beyond: the median
	} {
		q, v := tailPercentile(ramp(tc.n))
		if q != tc.q || v != tc.value {
			t.Errorf("n=%d: got p%g = %g, want p%g = %g", tc.n, 100*q, v, 100*tc.q, tc.value)
		}
	}
}

func TestMedianOverSpawnsUsesBothMiddleValues(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four spawns = %g, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g, want 0", got)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{name: "train.epoch", id: 0, parent: -1, start: us(0), end: us(100)},
		{name: "gnn.forward_rank", id: 1, parent: 0, start: us(10), end: us(30)},
		{name: "gnn.forward_rank", id: 2, parent: 0, start: us(20), end: us(50)}, // overlaps span 1: union 10..50
		{name: "gnn.step", id: 3, parent: 0, start: us(60), end: us(70)},
		{name: "late", id: 4, parent: 0, start: us(90), end: us(120)}, // clipped at the parent's end
		{name: "inner", id: 5, parent: 3, start: us(62), end: us(65)},
	}
	self := selfTimes(spans)
	want := []time.Duration{us(100 - 40 - 10 - 10), us(20), us(30), us(7), us(30), us(3)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestZipfStreamIsDeterministicPerSeed(t *testing.T) {
	keys := newPopularity(7, 1000)
	a, b := keys.stream(3, 5000), keys.stream(3, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different streams")
	}
	if reflect.DeepEqual(a, keys.stream(4, 5000)) {
		t.Fatal("two seeds gave the same stream")
	}
	if !reflect.DeepEqual([]int(keys), []int(newPopularity(7, 1000))) {
		t.Fatal("the same seed gave two popularity orders")
	}
	hot := 0
	for _, v := range a {
		if v < 0 || v >= 1000 {
			t.Fatalf("vertex %d outside the key space", v)
		}
		if v == keys[0] {
			hot++
		}
	}
	if hot < len(a)/10 {
		t.Errorf("hottest key drew %d of %d queries; Zipf(1.2) gives it over a tenth", hot, len(a))
	}
}

// toySpec is a 4-GPU spec small enough to train in milliseconds.
var toySpec = worker.Spec{Dataset: "Web-Google", Scale: 1024, FeatureDim: 8, Model: "GCN", Hidden: 4, Layers: 2, GPUs: 4, Seed: 5, LR: learningRate}

func TestDecomposedEpochMatchesTrainer(t *testing.T) {
	ctx := context.Background()
	sys, model, features, targets, err := worker.Build(toySpec)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.NewTrainer(model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := sys.NewTrainer(model, features, targets)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	for e := 0; e < 4; e++ {
		want, err := plain.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		plain.Step(float32(toySpec.LR))
		got, err := decomposedEpoch(ctx, rec, traced, float32(toySpec.LR), "runtime", e)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch %d: decomposed loss %v, Trainer.Epoch loss %v", e, got, want)
		}
	}
	if a, b := worker.ModelDigest(plain.Models[0]), worker.ModelDigest(traced.Models[0]); a != b {
		t.Fatalf("model digests differ after 4 epochs: %#x vs %#x", a, b)
	}
	spans, err := rec.snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	sums := epochSums(spans)
	for _, name := range []string{"runtime.allgather_in", "runtime.allgather_hid", "runtime.allgather_bwd", "gnn.forward", "gnn.backward", "gnn.loss", "collective.allreduce", "gnn.step", "train.epoch", "self"} {
		if len(sums[name]) != 4 {
			t.Errorf("%s: spans in %d of 4 epochs", name, len(sums[name]))
		}
	}
	// The root's children and its self time partition the epoch.
	for e := 0; e < 4; e++ {
		var parts float64
		for name, byOp := range sums {
			if name != "train.epoch" {
				parts += byOp[e]
			}
		}
		if whole := sums["train.epoch"][e]; parts < 0.999*whole || parts > 1.001*whole {
			t.Errorf("epoch %d: parts sum to %g ms of a %g ms epoch", e, parts, whole)
		}
	}
}

func TestCorruptedLossFailsEveryOp(t *testing.T) {
	ref, err := reference(context.Background(), toySpec)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	o.attempted = 40
	for _, d := range endToEnd {
		o.metrics[d.name] = 1
	}
	checkPrefix(o, "clean", ref.Losses, ref.Losses)
	if res := finish(o, endToEnd, true); !res.Correct || res.Failed != 0 {
		t.Fatalf("a clean run was reported as %+v", res)
	}
	corrupt := append([]float64(nil), ref.Losses...)
	corrupt[2] += 1e-12
	checkPrefix(o, "corrupted", corrupt, ref.Losses)
	res := finish(o, endToEnd, true)
	if res.Correct || res.Failed != res.Attempted || res.Attempted != 40 {
		t.Fatalf("one corrupted loss must fail all 40 ops (main then exits 1); got %+v", res)
	}
}

func TestFinishRejectsMissingAndZeroMetrics(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	o.metrics["setup_s"] = 0.5
	o.metrics["ops_per_s_p90"] = 0
	res := finish(o, endToEnd, true)
	if res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("missing and zero end-to-end metrics passed: %+v", res)
	}
	if len(o.failures) != len(endToEnd)-1 {
		t.Errorf("failures %q, want one per metric but setup_s", o.failures)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the Go tables in
// step: same workloads and reasons' names, same metrics, same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Skip("no BENCHMARK.json at the module root")
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, tables have %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, tables have %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n%v\n%v", layers, perLayer)
	}
}
