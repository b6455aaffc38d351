package runtime

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dgcl/internal/core"
	"dgcl/internal/tensor"
)

// Fault injection: a Transport wrapper that, with seeded probabilities,
// drops, delays, duplicates, or corrupts messages. It models the misbehaving
// transports of real deployments (lossy cross-machine links, contended PCIe)
// so the chaos tests can exercise the retry machinery deterministically. The
// network simulator (internal/simnet) models only the fault-free fabric;
// nothing prices these faults in virtual time.

// FaultRates are per-send probabilities in [0,1] for each fault kind.
// Multiple faults can fire on one send (a delayed duplicate, a corrupted
// delivery); drop preempts the rest.
type FaultRates struct {
	Drop      float64
	Delay     float64
	Duplicate float64
	Corrupt   float64
}

func (r FaultRates) zero() bool {
	return r.Drop == 0 && r.Delay == 0 && r.Duplicate == 0 && r.Corrupt == 0
}

// FaultStats counts injected faults across all collectives sharing one
// FaultConfig (transports are rebuilt per collective; the counters
// persist).
type FaultStats struct {
	Drops, Delays, Duplicates, Corrupts atomic.Int64
}

// FaultConfig configures the fault-injecting transport wrapper.
type FaultConfig struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// Default applies to every link.
	Default FaultRates
	// MaxDelay bounds the injected delay (uniform in (0, MaxDelay]);
	// defaults to 1ms when a Delay rate is set.
	MaxDelay time.Duration
	// Stats, when non-nil, counts injected faults.
	Stats *FaultStats
}

type faultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFaultTransport wraps inner with seeded fault injection. Use it under
// NewRetryTransport so injected failures are retried; without the retry
// decorator they surface directly as client errors.
func NewFaultTransport(inner Transport, cfg FaultConfig) Transport {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	return &faultTransport{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// roll draws the fault decisions for one send under the mutex so concurrent
// clients keep the sequence deterministic per (seed, arrival order).
func (t *faultTransport) roll(r FaultRates) (drop, dup, corrupt bool, delay time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.Drop > 0 && t.rng.Float64() < r.Drop {
		return true, false, false, 0
	}
	dup = r.Duplicate > 0 && t.rng.Float64() < r.Duplicate
	corrupt = r.Corrupt > 0 && t.rng.Float64() < r.Corrupt
	if r.Delay > 0 && t.rng.Float64() < r.Delay {
		delay = time.Duration(1 + t.rng.Int63n(int64(t.cfg.MaxDelay)))
	}
	return drop, dup, corrupt, delay
}

func (t *faultTransport) Send(ctx context.Context, key TransferKey, tr core.Transfer, msg Message) error {
	msg.Checksum = msg.sum() // the seal Recv verifies; in-place rows are only read
	rates := t.cfg.Default
	if rates.zero() {
		return t.inner.Send(ctx, key, tr, msg)
	}
	drop, dup, corrupt, delay := t.roll(rates)
	if drop {
		t.count(func(s *FaultStats) *atomic.Int64 { return &s.Drops })
		return ErrDropped
	}
	if delay > 0 {
		t.count(func(s *FaultStats) *atomic.Int64 { return &s.Delays })
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	deliver := msg
	if corrupt {
		t.count(func(s *FaultStats) *atomic.Int64 { return &s.Corrupts })
		deliver = corruptCopy(msg)
	}
	if dup {
		t.count(func(s *FaultStats) *atomic.Int64 { return &s.Duplicates })
		// Best effort: a lost duplicate is invisible to the protocol.
		_ = t.inner.Send(ctx, key, tr, deliver) //dgclvet:ignore errwrap duplicate injection is fire-and-forget; the tracked copy below carries the error
	}
	if err := t.inner.Send(ctx, key, tr, deliver); err != nil {
		return err
	}
	if corrupt {
		// The reliable-delivery layer's NACK: the sender learns the copy
		// arrived damaged and (under the retry decorator) retransmits.
		return ErrCorrupt
	}
	return nil
}

func (t *faultTransport) Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error) {
	msg, err := t.inner.Recv(ctx, key, tr)
	if err != nil {
		return Message{}, err
	}
	// Injection implies verification: damaged copies must not escape into
	// the runtime as silent data corruption.
	if !msg.Valid() {
		return Message{}, ErrCorrupt
	}
	return msg, nil
}

func (t *faultTransport) count(sel func(*FaultStats) *atomic.Int64) {
	if t.cfg.Stats != nil {
		sel(t.cfg.Stats).Add(1)
	}
}

// corruptCopy flips one float's bits in a materialised copy of the payload
// (either form), leaving the original, which the retry decorator will
// retransmit, intact.
func corruptCopy(msg Message) Message {
	rows := tensor.New(msg.NumRows(), msg.Cols())
	for i := range rows.Rows {
		copy(rows.Data[i*rows.Cols:], msg.Row(i))
	}
	if len(rows.Data) > 0 {
		bits := math.Float32bits(rows.Data[0]) ^ 0xDEADBEEF
		rows.Data[0] = math.Float32frombits(bits)
	}
	return Message{Rows: rows, Checksum: msg.Checksum}
}
