package runtime

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
)

// Failure state. The HealthTracker holds the cluster's one monotone down set
// and every way a device enters it. A CrashConfig schedule fires into it as
// the client stage loops reach the scheduled stage. The failure detector
// feeds it too: a real fail-stop failure first shows up as repeated receive
// deadlines (the peer simply stops answering), so the tracker grades each
// client's collective outcome, converts explicit DeviceDownError evidence
// into an immediate verdict, and converts downAfter consecutive
// deadline-class failures blamed on the same peer into a suspicion verdict.
// The stage loop fast-fails every transfer touching a device in the set,
// ObserveCollective surfaces the set via CollectiveError.Down, and the
// resilient training loop recovers from it.

// DefaultDownAfter is the consecutive deadline-strike threshold before a
// device with no explicit down evidence is declared dead.
const DefaultDownAfter = 2

// HealthTracker owns the down set, the strikes against live devices and the
// pending crash schedule. One tracker outlives cluster rebuilds, so devices
// that died before a degraded replan stay dead in the rebuilt world. Methods
// are safe for concurrent use by the client goroutines of a collective; the
// two the stage loop calls per transfer or stage (downEndpoint and advance)
// take no lock unless an event of the current epoch is pending.
type HealthTracker struct {
	mu sync.Mutex
	// downAfter is the number of consecutive deadline-class strikes against
	// one device before it is declared down.
	downAfter int
	strikes   map[int]int
	pending   []CrashEvent
	epoch     int
	// armed is set while a pending event belongs to the current epoch.
	armed atomic.Bool
	// down is the ascending down set. Writers replace it under mu and never
	// mutate a published slice, so readers load it without the lock.
	down atomic.Pointer[[]int]
}

// NewHealthTracker builds a tracker with the strike threshold downAfter
// (<=0 means DefaultDownAfter) and the fail-stop schedule (an empty one
// schedules no death).
func NewHealthTracker(downAfter int, schedule CrashConfig) *HealthTracker {
	h := &HealthTracker{downAfter: DefaultDownAfter, strikes: make(map[int]int), epoch: -1}
	h.Configure(downAfter, &schedule)
	return h
}

// Configure replaces the strike threshold when downAfter > 0 and the pending
// schedule when schedule is non-nil. Fired events and verdicts stay: the down
// set only grows.
func (h *HealthTracker) Configure(downAfter int, schedule *CrashConfig) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if downAfter > 0 {
		h.downAfter = downAfter
	}
	if schedule != nil {
		h.pending = slices.Clone(schedule.Events)
		h.fireLocked(func(CrashEvent) bool { return false }) // re-arm only
	}
}

// BeginEpoch advances the schedule's epoch clock. The trainer calls it before
// each epoch's first collective; events of earlier epochs that never fired
// (their stage was beyond the plan) fire now, keeping the schedule monotone.
func (h *HealthTracker) BeginEpoch(epoch int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.epoch = epoch
	h.fireLocked(func(e CrashEvent) bool { return e.Epoch < epoch })
}

// advance fires every pending event of the current epoch whose stage has
// been reached. A client's stage loop calls it once per stage in which the
// client has a transfer, before that stage's first send or receive, so the
// down decision is a pure function of (epoch, stage) rather than of
// goroutine scheduling.
func (h *HealthTracker) advance(stage int) {
	if !h.armed.Load() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fireLocked(func(e CrashEvent) bool { return e.Epoch == h.epoch && e.Stage <= stage })
}

// fireLocked marks down every pending event matching the predicate and
// re-arms advance for what is left of the current epoch. Caller holds h.mu.
func (h *HealthTracker) fireLocked(match func(CrashEvent) bool) {
	armed := false
	kept := h.pending[:0]
	for _, e := range h.pending {
		if match(e) {
			h.markDownLocked(e.Device)
		} else {
			kept = append(kept, e)
			armed = armed || e.Epoch == h.epoch
		}
	}
	h.pending = kept
	h.armed.Store(armed)
}

// markDownLocked adds dev to the down set and clears its strikes; every
// verdict path ends here. Caller holds h.mu.
func (h *HealthTracker) markDownLocked(dev int) {
	delete(h.strikes, dev)
	down := h.downSet()
	i, found := slices.BinarySearch(down, dev)
	if found {
		return
	}
	down = slices.Insert(slices.Clip(down), i, dev)
	h.down.Store(&down)
}

// strikeLocked charges a live dev one deadline-class strike and convicts it
// at the threshold. Caller holds h.mu.
func (h *HealthTracker) strikeLocked(dev int) {
	if h.Down(dev) {
		return
	}
	h.strikes[dev]++
	if h.strikes[dev] >= h.downAfter {
		h.markDownLocked(dev)
	}
}

// ObserveCollective grades one finished collective: errs[d] is the error
// client d returned (nil for a clean finish) and ids maps client index to
// external device id (nil = identity). It returns every device now down,
// ascending, in external ids.
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
			h.markDownLocked(down.Device)
			indicted[down.Device] = true
			continue
		}
		if suspect, ok := suspectOf(err, i); ok {
			indicted[dev(suspect)] = true
		}
	}
	for d := range indicted {
		h.strikeLocked(d)
	}
	// A device that answered cleanly this round is alive: clear its strikes.
	for i, err := range errs {
		if err == nil && !indicted[dev(i)] {
			delete(h.strikes, dev(i))
		}
	}
	return slices.Clone(h.downSet())
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
// evidence. Strikes accumulate to the same threshold and verdicts are just
// as persistent, so "stalled" and "dead" mean the same thing on the control
// plane as they do on the data plane.

// ObserveRenewal records direct proof of life for dev (a heartbeat arrived):
// its consecutive-strike count resets. Verdicts are persistent — a renewal
// never resurrects a device already judged down.
func (h *HealthTracker) ObserveRenewal(dev int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.strikes, dev)
}

// ObserveStrike records one deadline-class strike against dev (a lease
// expired with no heartbeat) and reports whether dev is now down.
func (h *HealthTracker) ObserveStrike(dev int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.strikeLocked(dev)
	return h.Down(dev)
}

// ObserveEvidence records explicit fail-stop evidence against dev (its
// control connection died, or a peer reported it DeviceDown): an immediate
// verdict, same as the collective path's DeviceDownError handling.
func (h *HealthTracker) ObserveEvidence(dev int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.markDownLocked(dev)
}

// Strikes returns dev's current consecutive deadline-strike count (0 after a
// renewal or a verdict).
func (h *HealthTracker) Strikes(dev int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.strikes[dev]
}

// downSet returns the published down set; callers must not mutate it.
func (h *HealthTracker) downSet() []int {
	if p := h.down.Load(); p != nil {
		return *p
	}
	return nil
}

// Down reports whether the device (external id) is down.
func (h *HealthTracker) Down(dev int) bool {
	return slices.Contains(h.downSet(), dev)
}

// DownDevices returns every down device, ascending.
func (h *HealthTracker) DownDevices() []int {
	return append([]int{}, h.downSet()...)
}

// downEndpoint returns a *DeviceDownError naming the first of src, dst
// (external ids) that is down, or nil when both are alive.
func (h *HealthTracker) downEndpoint(src, dst int) error {
	if h.Down(src) {
		return &DeviceDownError{Device: src}
	}
	if h.Down(dst) {
		return &DeviceDownError{Device: dst}
	}
	return nil
}
