package runtime

import (
	"context"
	"errors"
	"sort"
	"sync"
)

// Failure detection. The stage loop makes transfers touching a *known* dead
// device fail fast, but a real fail-stop failure first shows up as
// repeated receive deadlines: the peer simply stops answering. The
// HealthTracker is the cluster's failure detector — it grades each client's
// collective outcome, converts explicit DeviceDownError evidence into an
// immediate verdict, and converts DownAfter consecutive deadline-class
// failures blamed on the same peer into a suspicion verdict. Verdicts are
// fed back into the CrashTracker (so the stage loop starts fast-failing the
// device) and surfaced to callers via CollectiveError.Down, which is
// what the resilient training loop keys recovery on.

// DefaultDownAfter is the consecutive deadline-strike threshold before a
// device with no explicit down evidence is declared dead.
const DefaultDownAfter = 2

// HealthTracker converts per-collective client errors into per-device down
// verdicts. Methods are safe for concurrent use.
type HealthTracker struct {
	// DownAfter is the number of consecutive deadline-class strikes against
	// one device before it is declared down (<=0 means DefaultDownAfter).
	DownAfter int

	mu       sync.Mutex
	crash    *CrashTracker
	strikes  map[int]int
	verdicts map[int]bool
}

// NewHealthTracker builds a detector that reports verdicts into crash (may
// be nil) so the stage loop fast-fails confirmed-dead devices.
func NewHealthTracker(downAfter int, crash *CrashTracker) *HealthTracker {
	if downAfter <= 0 {
		downAfter = DefaultDownAfter
	}
	return &HealthTracker{
		DownAfter: downAfter,
		crash:     crash,
		strikes:   make(map[int]int),
		verdicts:  make(map[int]bool),
	}
}

// ObserveCollective grades one finished collective: errs[d] is the error
// client d returned (nil for a clean finish) and ids maps client index to
// external device id (nil = identity). It returns every device now judged
// down, ascending, in external ids.
func (h *HealthTracker) ObserveCollective(errs []error, ids []int) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	dev := func(i int) int {
		if ids == nil {
			return i
		}
		return ids[i]
	}
	// Collect this round's suspicions first: a clean client exonerates a
	// suspect only if no other client indicted it in the same collective
	// (the survivor that never talks to the dead device must not erase the
	// strikes of those that do).
	indicted := make(map[int]bool)
	for i, err := range errs {
		if err == nil {
			continue
		}
		var down *DeviceDownError
		if errors.As(err, &down) {
			h.verdictLocked(down.Device)
			indicted[down.Device] = true
			continue
		}
		if suspect, ok := suspectOf(err, i); ok {
			indicted[dev(suspect)] = true
		}
	}
	for d := range indicted {
		if h.verdicts[d] {
			continue
		}
		h.strikes[d]++
		if h.strikes[d] >= h.DownAfter {
			h.verdictLocked(d)
		}
	}
	// A device that answered cleanly this round is alive: clear its strikes.
	for i, err := range errs {
		if err == nil && !indicted[dev(i)] {
			delete(h.strikes, dev(i))
		}
	}
	return h.downLocked()
}

// verdictLocked records a down verdict and tells the crash tracker so the
// stage loop fast-fails the device from now on.
func (h *HealthTracker) verdictLocked(dev int) {
	if h.verdicts[dev] {
		return
	}
	h.verdicts[dev] = true
	delete(h.strikes, dev)
	if h.crash != nil {
		h.crash.MarkDown(dev)
	}
}

// suspectOf extracts the peer a client error implicates: a deadline-class
// TransportError blames the remote endpoint of the transfer. Plain context
// cancellation is collateral damage from another client aborting the
// collective and implicates nobody.
func suspectOf(err error, self int) (int, bool) {
	var te *TransportError
	if !errors.As(err, &te) {
		return 0, false
	}
	if !errors.Is(te.Err, context.DeadlineExceeded) {
		return 0, false
	}
	if te.Src != self {
		return te.Src, true
	}
	return te.Dst, true
}

// Direct-evidence API. The collective path above grades whole collectives;
// lease-based supervisors (the multi-process coordinator's control-plane
// heartbeats, internal/worker) feed the same verdict model one observation at
// a time: a renewal is proof of life, a missed lease deadline is one
// deadline-class strike, and a connection loss is explicit fail-stop
// evidence. Strikes accumulate to the same DownAfter threshold and verdicts
// are just as persistent, so "stalled" and "dead" mean the same thing on the
// control plane as they do on the data plane.

// ObserveRenewal records direct proof of life for dev (a heartbeat arrived):
// its consecutive-strike count resets. Verdicts are persistent — a renewal
// never resurrects a device already judged down.
func (h *HealthTracker) ObserveRenewal(dev int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.strikes, dev)
}

// ObserveStrike records one deadline-class strike against dev (a lease
// expired with no heartbeat) and reports whether dev now has a down verdict.
func (h *HealthTracker) ObserveStrike(dev int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.verdicts[dev] {
		return true
	}
	h.strikes[dev]++
	if h.strikes[dev] >= h.DownAfter {
		h.verdictLocked(dev)
	}
	return h.verdicts[dev]
}

// ObserveEvidence records explicit fail-stop evidence against dev (its
// control connection died, or a peer reported it DeviceDown): an immediate
// verdict, same as the collective path's DeviceDownError handling.
func (h *HealthTracker) ObserveEvidence(dev int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.verdictLocked(dev)
}

// Strikes returns dev's current consecutive deadline-strike count (0 after a
// renewal or a verdict).
func (h *HealthTracker) Strikes(dev int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.strikes[dev]
}

// Down reports whether the device (external id) has a down verdict.
func (h *HealthTracker) Down(dev int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.verdicts[dev]
}

// DownDevices returns every device with a down verdict, ascending.
func (h *HealthTracker) DownDevices() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.downLocked()
}

func (h *HealthTracker) downLocked() []int {
	out := make([]int, 0, len(h.verdicts))
	for d := range h.verdicts {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}
