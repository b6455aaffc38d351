// Package clock is the module's one time seam. Everything that waits on a
// timer whose firing a test must control — the coordinator's leases and
// wakeups, worker heartbeats and reconnect backoff — takes a Clock;
// production passes Real, tests pass a Fake and advance it by hand, so lease
// expiry and backoff schedules are exact rather than wall-clock races.
package clock

import (
	"sync"
	"time"
)

// Clock abstracts reading the time and waiting for a duration to pass.
type Clock interface {
	Now() time.Time
	// After returns a channel that delivers once after d, plus a stop
	// function reporting whether it prevented the firing (time.Timer
	// semantics). Callers must call stop when they abandon the channel.
	After(d time.Duration) (<-chan time.Time, func() bool)
}

// Real is the wall clock.
type Real struct{}

func (Real) Now() time.Time { return time.Now() }

func (Real) After(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Fake is a manually advanced clock: timers fire only when a test calls
// Advance. Safe for concurrent use.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at      time.Time
	ch      chan time.Time
	stopped bool
}

// NewFake starts a fake clock at start.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After arms a timer that fires when Advance moves the clock to or past d
// from now; a non-positive d fires at once, as time.NewTimer does.
func (c *Fake) After(d time.Duration) (<-chan time.Time, func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- c.now
		t.stopped = true
		return t.ch, func() bool { return false }
	}
	c.timers = append(c.timers, t)
	return t.ch, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		prevented := !t.stopped
		t.stopped = true
		return prevented
	}
}

// Advance moves the clock forward by d and fires every timer that is now due.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	rest := c.timers[:0]
	for _, t := range c.timers {
		switch {
		case t.stopped:
		case t.at.After(c.now):
			rest = append(rest, t)
		default:
			t.stopped = true
			t.ch <- c.now // capacity 1, sent at most once: cannot block
		}
	}
	c.timers = rest
}
