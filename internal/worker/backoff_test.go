package worker

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"dgcl/internal/clock"
)

// TestBackoffScheduleDeterministicAndBounded: the retry schedule is a pure
// function of the config — two iterators agree delay for delay — and every
// delay lands in [raw/2, raw) where raw is the capped exponential.
func TestBackoffScheduleDeterministicAndBounded(t *testing.T) {
	cfg := BackoffConfig{Tries: 8, Seed: 7}
	a, b := newBackoff(cfg), newBackoff(cfg)
	for i := 0; i < 8; i++ {
		raw := backoffInitial << i
		if raw > backoffMax {
			raw = backoffMax
		}
		da, db := a.next(), b.next()
		if da != db {
			t.Fatalf("attempt %d: same config produced %v and %v", i, da, db)
		}
		if da < raw/2 || da >= raw {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, da, raw/2, raw)
		}
	}
}

func TestBackoffDifferentSeedsDiverge(t *testing.T) {
	a := newBackoff(BackoffConfig{Seed: 1})
	b := newBackoff(BackoffConfig{Seed: 2})
	same := true
	for i := 0; i < 5; i++ {
		if a.next() != b.next() {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds produced identical jitter streams; restarts would stampede in lockstep")
	}
}

func TestBackoffDefaults(t *testing.T) {
	cfg := BackoffConfig{}.withDefaults()
	if cfg.Tries != 1 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if backoffInitial != 100*time.Millisecond || backoffMax != 5*time.Second {
		t.Fatalf("backoff bounds %v..%v, want 100ms..5s", backoffInitial, backoffMax)
	}
}

// TestDialBackoffSleepsOnInjectedClock proves the retry sleeps run on the
// injected clock: the two real-time sleeps would total under 300ms, yet
// the dial is still pending after a second of an unmoved fake clock;
// advancing the fake clock then drains all three attempts, and the give-up
// error names the attempt count.
func TestDialBackoffSleepsOnInjectedClock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more: every dial fails fast

	fc := clock.NewFake(time.Unix(0, 0))
	done := make(chan error, 1)
	go func() {
		_, err := dialBackoff(context.Background(), fc, addr,
			BackoffConfig{Tries: 3, Seed: 1})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("dialBackoff returned before the fake clock moved (%v); is it sleeping on the real clock?", err)
	case <-time.After(time.Second):
	}
	deadline := time.After(20 * time.Second)
	for {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("dial of a closed port succeeded")
			}
			if !strings.Contains(err.Error(), "after 3 attempts") {
				t.Fatalf("give-up error does not name the attempt count: %v", err)
			}
			return
		case <-deadline:
			t.Fatal("dialBackoff did not finish; is it sleeping on the real clock?")
		default:
			fc.Advance(time.Hour)
			time.Sleep(time.Millisecond)
		}
	}
}

func TestDialBackoffHonorsContextCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	fc := clock.NewFake(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := dialBackoff(ctx, fc, addr, BackoffConfig{Tries: 10, Seed: 1})
		done <- err
	}()
	// Let the first attempt fail and the sleep arm, then cancel: the dial
	// must return promptly without the clock ever advancing.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled dial returned success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled dialBackoff never returned")
	}
}
