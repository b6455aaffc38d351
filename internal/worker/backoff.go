package worker

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"dgcl/internal/clock"
)

// Reconnect backoff bounds: the first retry waits up to backoffInitial,
// and the delay doubles up to backoffMax.
const (
	backoffInitial = 100 * time.Millisecond
	backoffMax     = 5 * time.Second
)

// BackoffConfig bounds the exponential reconnect backoff a worker uses to
// (re)dial the coordinator: attempt i sleeps min(backoffInitial·2^i,
// backoffMax) scaled by a deterministic jitter in [0.5, 1.0) drawn from Seed,
// so restarted workers do not stampede the coordinator in lockstep yet every
// test schedule is reproducible. The zero value selects the defaults.
type BackoffConfig struct {
	// Tries is the total connection attempts (1 = no retry). Default 1.
	Tries int
	// Seed drives the jitter stream; the schedule is a pure function of the
	// config.
	Seed int64
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Tries <= 0 {
		c.Tries = 1
	}
	return c
}

// backoff iterates the jittered delay schedule.
type backoff struct {
	cfg     BackoffConfig
	rng     *rand.Rand
	attempt int
}

func newBackoff(cfg BackoffConfig) *backoff {
	cfg = cfg.withDefaults()
	return &backoff{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// next returns the delay before the next attempt: bounded exponential growth
// with multiplicative jitter in [0.5, 1.0).
func (b *backoff) next() time.Duration {
	d := backoffInitial
	for i := 0; i < b.attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	b.attempt++
	return time.Duration(float64(d) * (0.5 + b.rng.Float64()/2))
}

// dialBackoff dials the coordinator under the backoff schedule, sleeping on
// the injected clock so tests drive the retries deterministically.
func dialBackoff(ctx context.Context, clk clock.Clock, addr string, cfg BackoffConfig) (net.Conn, error) {
	b := newBackoff(cfg)
	var lastErr error
	for try := 0; try < b.cfg.Tries; try++ {
		if try > 0 {
			ch, stop := clk.After(b.next())
			select {
			case <-ch:
			case <-ctx.Done():
				stop()
				return nil, ctx.Err()
			}
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("worker: coordinator %s unreachable after %d attempts: %w", addr, b.cfg.Tries, lastErr)
}
