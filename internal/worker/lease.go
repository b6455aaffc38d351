package worker

import (
	"sort"
	"time"

	"dgcl/internal/clock"
	"dgcl/internal/runtime"
)

// leases is the coordinator's per-generation lease table: each live member
// holds a lease that its heartbeats renew, and the table converts missed
// deadlines into the HealthTracker verdict model from the in-process failure
// detector — one deadline-class strike per expired lease, DownAfter strikes
// for a verdict, explicit evidence (connection loss, peer DeviceDown
// reports) for an immediate verdict. That reuse keeps "stalled" vs "dead"
// semantics identical across the data plane and the control plane: a stalled
// worker earns strikes and a suspect state it can still renew its way out
// of; a dead one is fenced out of the generation.
//
// The table is driven from the supervisor's single event loop (time injected
// via Clock), so it needs no lock of its own; the embedded HealthTracker is
// internally synchronized.
type leases struct {
	clock   clock.Clock
	timeout time.Duration
	health  *runtime.HealthTracker

	last map[int]time.Time // member id -> last renewal
	dev  map[int]int       // member id -> representative external device
}

// newLeases builds a lease table for one membership generation. timeout is
// the per-renewal deadline; downAfter the consecutive-strike threshold.
func newLeases(clk clock.Clock, timeout time.Duration, downAfter int) *leases {
	return &leases{
		clock:   clk,
		timeout: timeout,
		health:  runtime.NewHealthTracker(downAfter, runtime.CrashConfig{}),
		last:    make(map[int]time.Time),
		dev:     make(map[int]int),
	}
}

// track starts (or restarts) member id's lease, blaming dev on expiry.
func (l *leases) track(id, dev int) {
	l.last[id] = l.clock.Now()
	l.dev[id] = dev
}

// drop stops tracking member id (it finished, left, or was judged dead).
func (l *leases) drop(id int) {
	delete(l.last, id)
}

// renew records proof of life for member id: the lease re-arms and the
// strike count clears.
func (l *leases) renew(id int) {
	if _, ok := l.last[id]; !ok {
		return
	}
	l.last[id] = l.clock.Now()
	l.health.ObserveRenewal(l.dev[id])
}

// evidence records explicit fail-stop evidence for member id (its control
// connection died): an immediate verdict.
func (l *leases) evidence(id int) {
	l.health.ObserveEvidence(l.dev[id])
}

// dead reports whether member id has a down verdict.
func (l *leases) dead(id int) bool { return l.health.Down(l.dev[id]) }

// check expires every lease past its deadline: each earns one strike and
// re-arms. It returns the members newly struck this call (suspects) and the
// members whose strikes just reached a verdict (dead), both ascending.
func (l *leases) check() (suspects, dead []int) {
	now := l.clock.Now()
	ids := make([]int, 0, len(l.last))
	for id := range l.last {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if now.Sub(l.last[id]) < l.timeout {
			continue
		}
		l.last[id] = now
		if l.health.ObserveStrike(l.dev[id]) {
			dead = append(dead, id)
			continue
		}
		suspects = append(suspects, id)
	}
	return suspects, dead
}

// nextDeadline returns the earliest lease deadline among tracked members,
// and whether any member is tracked.
func (l *leases) nextDeadline() (time.Time, bool) {
	var min time.Time
	ids := make([]int, 0, len(l.last))
	for id := range l.last {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d := l.last[id].Add(l.timeout)
		if min.IsZero() || d.Before(min) {
			min = d
		}
	}
	return min, !min.IsZero()
}
