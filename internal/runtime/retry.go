package runtime

import (
	"context"
	"errors"
	"time"

	"dgcl/internal/core"
)

// RetryPolicy configures the retry/timeout transport decorator: how many
// retransmissions a sender may attempt, how it backs off between attempts,
// and how long a receiver waits before declaring a transfer lost. With a
// policy installed, a dropped or corrupted message becomes a structured
// *TransportError within a bounded time instead of a hung allgather.
type RetryPolicy struct {
	// MaxRetries is the retransmission budget per transfer (0 = a single
	// attempt, no retries).
	MaxRetries int
	// BaseBackoff is the wait before the first retransmission; it doubles
	// each retry up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RecvTimeout bounds each receive. 0 means no per-receive deadline
	// (the collective's context deadline still applies).
	RecvTimeout time.Duration
}

// DefaultRetryPolicy is a sane starting point: 4 retransmissions with
// 200µs..5ms exponential backoff, 2s receive deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
		RecvTimeout: 2 * time.Second,
	}
}

func (p RetryPolicy) backoff(attempt int) time.Duration {
	if p.BaseBackoff <= 0 {
		return 0
	}
	d := p.BaseBackoff << uint(attempt)
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

type retryTransport struct {
	inner  Transport
	policy RetryPolicy
	stats  *CommStats // optional: retry/timeout counters
}

// NewRetryTransport decorates inner with the retry/timeout policy. stats,
// when non-nil, accumulates per-GPU retry and timeout counters (retries
// attributed to the sender, timeouts to the receiver).
func NewRetryTransport(inner Transport, policy RetryPolicy, stats *CommStats) Transport {
	return &retryTransport{inner: inner, policy: policy, stats: stats}
}

func (t *retryTransport) Send(ctx context.Context, key TransferKey, tr core.Transfer, msg Message) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := t.inner.Send(ctx, key, tr, msg)
		if err == nil {
			return nil
		}
		if !IsRetryable(err) {
			return err
		}
		lastErr = err
		if attempt >= t.policy.MaxRetries {
			return &TransportError{Op: "send", Key: key, Src: tr.Src, Dst: tr.Dst,
				Attempts: attempt + 1, Err: lastErr}
		}
		if t.stats != nil {
			t.stats.retries[tr.Src].Add(1)
		}
		if d := t.policy.backoff(attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return &TransportError{Op: "send", Key: key, Src: tr.Src, Dst: tr.Dst,
					Attempts: attempt + 1, Err: ctx.Err()}
			}
		} else if err := ctx.Err(); err != nil {
			return &TransportError{Op: "send", Key: key, Src: tr.Src, Dst: tr.Dst,
				Attempts: attempt + 1, Err: err}
		}
	}
}

func (t *retryTransport) Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error) {
	attempts := 0
	deadline := ctx
	cancel := func() {}
	if t.policy.RecvTimeout > 0 {
		deadline, cancel = context.WithTimeout(ctx, t.policy.RecvTimeout)
	}
	defer cancel()
	for {
		attempts++
		msg, err := t.inner.Recv(deadline, key, tr)
		if err == nil {
			return msg, nil
		}
		if errors.Is(err, ErrCorrupt) {
			// A damaged copy was consumed; the sender was NACKed and will
			// retransmit — keep waiting within the deadline.
			continue
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			if t.stats != nil {
				t.stats.timeouts[tr.Dst].Add(1)
			}
			return Message{}, &TransportError{Op: "recv", Key: key, Src: tr.Src, Dst: tr.Dst,
				Attempts: attempts, Err: err}
		}
		return Message{}, err
	}
}
