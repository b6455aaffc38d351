// Command dgclperf is the repository's benchmark (see BENCHMARK.json and
// README.md in this directory). One invocation runs one workload:
//
//	go run ./cmd/dgclperf --workload chan-orkut --seed 1 --seconds 10 --trace 0
//
// prints the end-to-end metrics as the last line of standard output, and
// --trace 1 pushes the same workload's spec through every layer with spans
// recorded around the calls and prints the per-layer metrics instead.
// --workload all runs every workload in a child process of its own and
// prints a table; -smoke shortens that to a schema check and -aa runs the
// set twice and compares the two against the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runDeadline bounds one workload run; the driver allows 180 s.
const runDeadline = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish turns an outcome into the reported result: exactly the metrics of
// defs, each finite (and, end to end, non-zero), and a failed check fails
// every attempted op.
func finish(o *outcome, defs []metricDef, nonZero bool) result {
	res := result{Attempted: max(o.attempted, 1), Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		switch {
		case !ok:
			o.failf("metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			o.failf("metric %s is %v", d.name, v)
			v = 0
		case nonZero && v == 0:
			o.failf("metric %s is zero", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Failed = o.failed
	if len(o.failures) > 0 {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	return res
}

// runOne runs one workload untraced or traced.
func runOne(ctx context.Context, w workload, seed int64, seconds float64, trace bool) (*outcome, []metricDef, error) {
	spec := w.spec
	spec.Seed = seed
	if trace {
		o, err := runTraced(ctx, w, spec, seconds)
		return o, perLayer, err
	}
	o, err := w.run(ctx, w, spec, seconds)
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	o.metrics["peak_rss_mb"] += rss // on top of the children's, which runWire put there
	return o, endToEnd, nil
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	smoke := flag.Bool("smoke", false, "with -workload all: short runs, checks and schema only")
	aa := flag.Bool("aa", false, "with -workload all: run the set twice and compare against the bounds")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *name == "all" {
		os.Exit(runAll(ctx, *seed, *seconds, *trace != 0, *smoke, *aa))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "dgclperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	o, defs, err := runOne(ctx, w, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgclperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res := finish(o, defs, *trace == 0)
	for _, f := range o.failures {
		fmt.Fprintf(os.Stderr, "dgclperf: %s: FAILED CHECK: %s\n", w.name, f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgclperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
