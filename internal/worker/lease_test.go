package worker

import (
	"reflect"
	"testing"
	"time"

	"dgcl/internal/clock"
)

// Lease-table battery on the injected clock: expiry cadence, strike
// accumulation to a verdict, renewal clearing strikes, and the wakeup
// arithmetic are all exact — no wall-clock sleeps.

func leaseFixture(timeout time.Duration, downAfter int) (*clock.Fake, *leases) {
	fc := clock.NewFake(time.Unix(1000, 0))
	return fc, newLeases(fc, timeout, downAfter)
}

func TestLeaseStrikesSuspectThenDead(t *testing.T) {
	fc, l := leaseFixture(time.Second, 3)
	l.track(0, 10)
	l.track(1, 11)
	if s, d := l.check(); len(s) != 0 || len(d) != 0 {
		t.Fatalf("fresh leases expired: suspects %v dead %v", s, d)
	}
	fc.Advance(time.Second)
	if s, d := l.check(); !reflect.DeepEqual(s, []int{0, 1}) || len(d) != 0 {
		t.Fatalf("first expiry: suspects %v dead %v, want [0 1] []", s, d)
	}
	// Member 1 beats: its strikes clear and its lease re-arms.
	l.renew(1)
	if got := l.health.Strikes(11); got != 0 {
		t.Fatalf("renewal left %d strikes", got)
	}
	fc.Advance(time.Second)
	if s, d := l.check(); !reflect.DeepEqual(s, []int{0, 1}) || len(d) != 0 {
		t.Fatalf("second expiry: suspects %v dead %v, want [0 1] []", s, d)
	}
	fc.Advance(time.Second)
	// Member 0 reaches its third consecutive strike (the verdict); member 1
	// is only at its second.
	s, d := l.check()
	if !reflect.DeepEqual(d, []int{0}) || !reflect.DeepEqual(s, []int{1}) {
		t.Fatalf("third expiry: suspects %v dead %v, want [1] [0]", s, d)
	}
	if !l.dead(0) || l.dead(1) {
		t.Fatalf("verdicts wrong: dead(0)=%v dead(1)=%v", l.dead(0), l.dead(1))
	}
}

func TestLeaseRenewalWithinDeadlineNeverStrikes(t *testing.T) {
	fc, l := leaseFixture(time.Second, 2)
	l.track(0, 10)
	for i := 0; i < 10; i++ {
		fc.Advance(900 * time.Millisecond)
		l.renew(0)
		if s, d := l.check(); len(s) != 0 || len(d) != 0 {
			t.Fatalf("beat %d: healthy member struck: suspects %v dead %v", i, s, d)
		}
	}
	if l.dead(0) {
		t.Fatal("healthy member judged dead")
	}
}

func TestLeaseEvidenceIsImmediateVerdict(t *testing.T) {
	_, l := leaseFixture(time.Second, 5)
	l.track(2, 42)
	l.evidence(2)
	if !l.dead(2) {
		t.Fatal("explicit evidence did not produce a verdict")
	}
}

func TestLeaseDropAndUntrackedRenewAreNoops(t *testing.T) {
	fc, l := leaseFixture(time.Second, 2)
	l.renew(7) // never tracked: must not create a lease
	l.track(0, 10)
	l.drop(0)
	l.renew(0) // dropped: must not resurrect the lease
	fc.Advance(2 * time.Second)
	if s, d := l.check(); len(s) != 0 || len(d) != 0 {
		t.Fatalf("dropped lease expired: suspects %v dead %v", s, d)
	}
	if _, ok := l.nextDeadline(); ok {
		t.Fatal("empty table reports a deadline")
	}
}

func TestLeaseNextDeadlineIsEarliest(t *testing.T) {
	fc, l := leaseFixture(time.Second, 2)
	start := fc.Now()
	l.track(0, 10)
	fc.Advance(300 * time.Millisecond)
	l.track(1, 11)
	d, ok := l.nextDeadline()
	if !ok || !d.Equal(start.Add(time.Second)) {
		t.Fatalf("deadline %v ok=%v, want %v", d, ok, start.Add(time.Second))
	}
	l.drop(0)
	d, ok = l.nextDeadline()
	if !ok || !d.Equal(start.Add(300*time.Millisecond+time.Second)) {
		t.Fatalf("deadline after drop %v ok=%v", d, ok)
	}
}
