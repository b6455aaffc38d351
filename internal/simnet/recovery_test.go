package simnet

import (
	"math"
	"testing"
)

// Recovery-pricing battery: the curve must behave like the Young/Daly
// trade-off it models — monotone parts pulling in opposite directions with
// an interior minimum, and the fixed bandwidths and latencies it prices.

func TestRecoveryPricing(t *testing.T) {
	bytes := int64(2e9) // 1s write at 2 GB/s
	if got := CheckpointTime(bytes); math.Abs(got-1.005) > 1e-9 {
		t.Fatalf("CheckpointTime(2GB) = %v, want 1.005 (1s write + 5ms commit)", got)
	}
	if got := RestoreTime(bytes); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("RestoreTime(2GB) = %v, want 0.5 at 4 GB/s", got)
	}
	want := 2.0 + 50e-3 + 0.5
	if got := RecoveryTime(bytes); math.Abs(got-want) > 1e-9 {
		t.Fatalf("RecoveryTime(2GB) = %v, want %v (detect + replan + restore)", got, want)
	}
}

func TestLostWorkScalesWithInterval(t *testing.T) {
	epoch := 2.0
	if got := LostWorkTime(4, epoch); got != 4.0 {
		t.Fatalf("LostWorkTime(4, 2s) = %v, want 4 (interval/2 epochs)", got)
	}
	if got := LostWorkTime(0, epoch); got != 1.0 {
		t.Fatalf("LostWorkTime clamps interval to 1, got %v", got)
	}
}

func TestOverheadPerEpochTracesAYoungDalyCurve(t *testing.T) {
	const (
		bytes     = int64(1e9)
		epochTime = 10.0
		failures  = 1e-3
	)
	over := func(interval int) float64 {
		return OverheadPerEpoch(interval, bytes, epochTime, failures)
	}
	// Steady-state checkpoint cost strictly decreases with the interval;
	// expected lost work strictly increases. Their sum must dip somewhere in
	// between: the curve is not monotone.
	best, bestAt := math.Inf(1), 0
	for interval := 1; interval <= 10000; interval *= 10 {
		if o := over(interval); o < best {
			best, bestAt = o, interval
		}
	}
	if bestAt == 1 || bestAt == 10000 {
		t.Fatalf("overhead is monotone over the sweep (min at interval %d); the trade-off is missing", bestAt)
	}
	// With failures switched off, longer intervals are always at least as
	// cheap — only the amortized write remains.
	prev := math.Inf(1)
	for interval := 1; interval <= 1024; interval *= 2 {
		o := OverheadPerEpoch(interval, bytes, epochTime, 0)
		if o > prev+1e-12 {
			t.Fatalf("failure-free overhead rose from %v to %v at interval %d", prev, o, interval)
		}
		prev = o
	}
	// The degenerate interval clamps instead of dividing by zero.
	if got := over(0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("OverheadPerEpoch(0) = %v", got)
	}
}
