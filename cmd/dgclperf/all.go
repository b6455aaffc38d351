package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile mirrors BENCHMARK.json as far as -aa needs it.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runChild runs one workload in a fresh process of this binary, so resident
// set peaks and warmed caches do not leak from one workload into the next,
// and parses the last line of its output.
func runChild(ctx context.Context, exe, name string, seed int64, seconds float64, trace bool) (result, error) {
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s: last output line is not a result: %w", name, err)
	}
	return res, nil
}

// runSet runs every workload once and prints every metric by name with its
// unit. It returns the results by workload and the number of workloads that
// failed a check or did not run.
func runSet(ctx context.Context, exe string, defs []metricDef, seed int64, seconds float64, trace bool) (map[string]result, int) {
	results := make(map[string]result, len(workloads))
	bad := 0
	for _, w := range workloads {
		res, err := runChild(ctx, exe, w.name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgclperf: %v\n", err)
			bad++
			continue
		}
		results[w.name] = res
		status := "ok"
		if !res.Correct {
			status = "FAILED"
			bad++
		}
		fmt.Printf("%-14s %s: %d attempted, %d failed, error_rate %g\n", w.name, status, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok {
				fmt.Printf("  %-34s MISSING\n", d.name)
				bad++
				continue
			}
			fmt.Printf("  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	return results, bad
}

// runAll is -workload all: one set (-smoke: at a tenth of the length), or
// with -aa two sets back to back compared per end-to-end metric and
// workload against the metric's bound. It returns the exit code.
func runAll(ctx context.Context, seed int64, seconds float64, trace, smoke, aa bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgclperf: %v\n", err)
		return 1
	}
	if smoke {
		seconds /= 10
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	first, bad := runSet(ctx, exe, defs, seed, seconds, trace)
	if !aa {
		return min(bad, 1)
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dgclperf: %v\n", err)
		return 1
	}
	second, bad2 := runSet(ctx, exe, defs, seed, seconds, trace)
	bad += bad2
	fmt.Println("A/A: second set against the first; positive is worse")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		if a.Metrics == nil || b.Metrics == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || -worse > m.Bound {
				verdict = "DISAGREES"
				bad++
			}
			fmt.Printf("  %-14s %-12s %+8.2f%% of bound %4.0f%%  %s\n", w.name, m.Name, 100*worse, 100*m.Bound, verdict)
		}
	}
	return min(bad, 1)
}
