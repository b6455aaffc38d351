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
	cfg := BackoffConfig{Initial: 100 * time.Millisecond, Max: time.Second, Tries: 8, Seed: 7}
	a, b := newBackoff(cfg), newBackoff(cfg)
	for i := 0; i < 8; i++ {
		raw := cfg.Initial << i
		if raw > cfg.Max {
			raw = cfg.Max
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
	a := newBackoff(BackoffConfig{Initial: time.Second, Max: time.Minute, Seed: 1})
	b := newBackoff(BackoffConfig{Initial: time.Second, Max: time.Minute, Seed: 2})
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
	if cfg.Initial != 100*time.Millisecond || cfg.Max != 5*time.Second || cfg.Tries != 1 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	// Max below Initial is lifted to Initial so the schedule stays sane.
	cfg = BackoffConfig{Initial: time.Second, Max: time.Millisecond}.withDefaults()
	if cfg.Max != time.Second {
		t.Fatalf("Max not lifted to Initial: %+v", cfg)
	}
}

// TestDialBackoffSleepsOnInjectedClock proves the retry sleeps run on the
// injected clock: with hour-long delays the dial would otherwise hang for
// hours, but advancing the fake clock drains all three attempts in
// milliseconds, and the give-up error names the attempt count.
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
			BackoffConfig{Initial: time.Hour, Max: time.Hour, Tries: 3, Seed: 1})
		done <- err
	}()
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
		_, err := dialBackoff(ctx, fc, addr, BackoffConfig{Initial: time.Hour, Max: time.Hour, Tries: 10, Seed: 1})
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
