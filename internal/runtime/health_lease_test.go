package runtime

import (
	"reflect"
	"testing"
)

// Direct-evidence API battery: the lease-based supervisors (internal/worker's
// coordinator) feed the HealthTracker one observation at a time instead of
// whole collectives; strikes, renewals, and explicit evidence must follow the
// same verdict model as the collective path.

func TestHealthDirectStrikesReachVerdict(t *testing.T) {
	h := NewHealthTracker(3, nil)
	if h.ObserveStrike(5) {
		t.Fatal("first strike produced a verdict")
	}
	if h.ObserveStrike(5) {
		t.Fatal("second strike produced a verdict")
	}
	if got := h.Strikes(5); got != 2 {
		t.Fatalf("Strikes = %d, want 2", got)
	}
	if !h.ObserveStrike(5) {
		t.Fatal("third strike did not reach the DownAfter=3 verdict")
	}
	if !h.Down(5) {
		t.Fatal("verdict not visible through Down")
	}
	if got := h.Strikes(5); got != 0 {
		t.Fatalf("strikes persisted past the verdict: %d", got)
	}
}

func TestHealthRenewalClearsStrikesButNotVerdicts(t *testing.T) {
	h := NewHealthTracker(2, nil)
	h.ObserveStrike(3)
	h.ObserveRenewal(3)
	if got := h.Strikes(3); got != 0 {
		t.Fatalf("renewal left %d strikes", got)
	}
	// The count restarts: one more strike is not a verdict.
	if h.ObserveStrike(3) {
		t.Fatal("strike after renewal reached a verdict")
	}
	if !h.ObserveStrike(3) {
		t.Fatal("second consecutive strike did not reach the verdict")
	}
	// Verdicts are persistent: a late renewal never resurrects the device.
	h.ObserveRenewal(3)
	if !h.Down(3) {
		t.Fatal("renewal resurrected a judged-down device")
	}
	if !h.ObserveStrike(3) {
		t.Fatal("strike on a judged-down device must still report the verdict")
	}
}

func TestHealthEvidenceIsImmediateAndFeedsCrash(t *testing.T) {
	crash := NewCrashTracker(CrashConfig{})
	h := NewHealthTracker(5, crash)
	h.ObserveEvidence(7)
	if !h.Down(7) {
		t.Fatal("explicit evidence did not produce an immediate verdict")
	}
	if !crash.Down(7) {
		t.Fatal("verdict did not reach the crash tracker")
	}
	h.ObserveStrike(2)
	h.ObserveEvidence(2)
	if got := h.DownDevices(); !reflect.DeepEqual(got, []int{2, 7}) {
		t.Fatalf("DownDevices = %v, want [2 7]", got)
	}
}
