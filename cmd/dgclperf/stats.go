package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile picks the nearest-rank q-quantile of an ascending slice (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the mean of the middle pair for even counts, so a median over
// four spawns uses both middle spawns instead of favouring one.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// The sandboxes this runs on flip between a fast and a slow state for
// seconds at a time (a fixed arithmetic loop takes 17 ms or 33 ms), so the
// median of a run lands wherever the run's share of slow time puts it: over
// eight runs of one commit the median epoch of chan-orkut ranged over 27%,
// its first decile over 19%, and deciles of different runs agree where their
// medians do not. Interference only ever slows work down; the decile on the
// better side stays inside the fast state while a tenth of the run is fast,
// and still moves when the program itself gets slower. Every end-to-end
// figure is that decile over the run's windows (epochs, batches, spawns,
// set-ups, slices of a phase); the traced run reports medians and tails.

// lowDecile is the better-side decile of times and sizes.
func lowDecile(xs []float64) float64 { return quantile(sortedCopy(xs), 0.10) }

// highDecile is the better-side decile of rates.
func highDecile(xs []float64) float64 { return quantile(sortedCopy(xs), 0.90) }

// tailPercentiles are the candidates of tailPercentile, highest first, in
// hundredths of a percent so ranks are whole-number arithmetic.
var tailPercentiles = []int{9999, 9990, 9900, 9500, 9000, 7500}

// tailPercentile returns the highest percentile that still has at least ten
// samples beyond it (choosing-metrics section 1) with its value; with fewer
// than 40 samples even p75 has no such tail and the median is returned as
// q=0.5.
func tailPercentile(xs []float64) (q, value float64) {
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		rank := (p*len(s) + 9999) / 10000 // nearest rank, rounded up
		if len(s)-rank >= 10 {
			return float64(p) / 10000, s[rank-1]
		}
	}
	return 0.5, median(s)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// until is the time seconds from now.
func until(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gapsMs turns per-epoch completion stamps into epoch durations; the first
// stamp has no predecessor and is dropped with whatever warm-up preceded it.
func gapsMs(stamps []time.Time) []float64 {
	var out []float64
	for i := 1; i < len(stamps); i++ {
		out = append(out, ms(stamps[i].Sub(stamps[i-1])))
	}
	return out
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}
