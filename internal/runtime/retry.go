package runtime

import (
	"context"
	"errors"
	"time"

	"dgcl/internal/core"
)

// RetryPolicy configures the retry decorator: how many retransmissions a
// sender may attempt and how it backs off between them. With a policy
// installed, a dropped or corrupted message is retransmitted, and one that
// exhausts the budget becomes a structured *TransportError instead of a
// hung allgather. A receive has no timer of its own: the collective's
// deadline (Cluster.Timeout or the caller's context) is its one bound, and
// the stage loop reports a receive it ends.
type RetryPolicy struct {
	// MaxRetries is the retransmission budget per transfer (0 = a single
	// attempt, no retries).
	MaxRetries int
	// BaseBackoff is the wait before the first retransmission; it doubles
	// each retry up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is a sane starting point: 4 retransmissions with
// 200µs..5ms exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
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
	stats  *CommStats // optional: retry counters
}

// NewRetryTransport decorates inner with the retry policy. stats, when
// non-nil, accumulates per-GPU retry counters, attributed to the sender.
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

// Recv is the receive half of reliable delivery: it discards a damaged copy
// (the sender was NACKed and retransmits) and waits for the next one.
func (t *retryTransport) Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error) {
	for {
		msg, err := t.inner.Recv(ctx, key, tr)
		if !errors.Is(err, ErrCorrupt) {
			return msg, err
		}
	}
}
