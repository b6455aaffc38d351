package runtime

import (
	"context"
	"fmt"
	"sync/atomic"

	"dgcl/internal/core"
)

// CommStats counts actual data movement performed by the runtime, per GPU.
// Counters are updated atomically so concurrent clients can report while
// running; they accumulate across allgathers until Reset. The counters live
// behind the transport layer (see statsTransport): send/receive sites in the
// clients no longer touch them, so every transport path — forward, backward,
// retried, faulty — is accounted uniformly.
type CommStats struct {
	k            int
	sentBytes    []atomic.Int64
	recvBytes    []atomic.Int64
	sentMsgs     []atomic.Int64
	recvMsgs     []atomic.Int64
	relayedBytes []atomic.Int64
	retries      []atomic.Int64
	timeouts     []atomic.Int64
}

// NewCommStats allocates counters for k GPUs.
func NewCommStats(k int) *CommStats {
	return &CommStats{
		k:         k,
		sentBytes: make([]atomic.Int64, k), recvBytes: make([]atomic.Int64, k),
		sentMsgs: make([]atomic.Int64, k), recvMsgs: make([]atomic.Int64, k),
		relayedBytes: make([]atomic.Int64, k),
		retries:      make([]atomic.Int64, k), timeouts: make([]atomic.Int64, k),
	}
}

// Reset zeroes every counter.
func (s *CommStats) Reset() {
	for d := 0; d < s.k; d++ {
		s.sentBytes[d].Store(0)
		s.recvBytes[d].Store(0)
		s.sentMsgs[d].Store(0)
		s.recvMsgs[d].Store(0)
		s.relayedBytes[d].Store(0)
		s.retries[d].Store(0)
		s.timeouts[d].Store(0)
	}
}

// Sent returns (bytes, messages) GPU d has sent.
func (s *CommStats) Sent(d int) (int64, int64) {
	return s.sentBytes[d].Load(), s.sentMsgs[d].Load()
}

// Received returns (bytes, messages) GPU d has received.
func (s *CommStats) Received(d int) (int64, int64) {
	return s.recvBytes[d].Load(), s.recvMsgs[d].Load()
}

// Relayed returns the bytes GPU d sent on behalf of other owners.
func (s *CommStats) Relayed(d int) int64 { return s.relayedBytes[d].Load() }

// Retries returns the retransmissions GPU d performed as a sender.
func (s *CommStats) Retries(d int) int64 { return s.retries[d].Load() }

// Timeouts returns the receive deadlines GPU d hit.
func (s *CommStats) Timeouts(d int) int64 { return s.timeouts[d].Load() }

// TotalBytes returns all bytes sent across the cluster.
func (s *CommStats) TotalBytes() int64 {
	var t int64
	for d := 0; d < s.k; d++ {
		t += s.sentBytes[d].Load()
	}
	return t
}

// TotalRetries returns all retransmissions across the cluster.
func (s *CommStats) TotalRetries() int64 {
	var t int64
	for d := 0; d < s.k; d++ {
		t += s.retries[d].Load()
	}
	return t
}

// TotalTimeouts returns all receive deadline hits across the cluster.
func (s *CommStats) TotalTimeouts() int64 {
	var t int64
	for d := 0; d < s.k; d++ {
		t += s.timeouts[d].Load()
	}
	return t
}

// String renders a per-GPU summary.
func (s *CommStats) String() string {
	out := ""
	for d := 0; d < s.k; d++ {
		sb, sm := s.Sent(d)
		rb, rm := s.Received(d)
		out += fmt.Sprintf("gpu%d: sent %d B in %d msgs (relayed %d B), received %d B in %d msgs",
			d, sb, sm, s.Relayed(d), rb, rm)
		if r, to := s.Retries(d), s.Timeouts(d); r > 0 || to > 0 {
			out += fmt.Sprintf(", %d retries, %d timeouts", r, to)
		}
		out += "\n"
	}
	return out
}

// statsTransport accounts successful sends and receives into CommStats. It
// wraps the outermost transport so a logical transfer is counted once, no
// matter how many retransmissions or duplicates the layers below produced —
// the retry layer reports those separately via the retry/timeout counters.
type statsTransport struct {
	inner Transport
	stats *CommStats
	// owner maps global vertex id -> owning GPU for relay accounting;
	// relayAware is false for backward collectives, where the sender almost
	// never owns the gradients it forwards and the forward-relay notion
	// does not apply.
	owner      []int32
	relayAware bool
}

// NewStatsTransport wraps inner with per-GPU transfer accounting. Exported
// for the transport conformance battery; production composition happens in
// Cluster.newTransport.
func NewStatsTransport(inner Transport, stats *CommStats, owner []int32, relayAware bool) Transport {
	return &statsTransport{inner: inner, stats: stats, owner: owner, relayAware: relayAware}
}

// Unwrap exposes the decorated transport (see WrappingTransport).
func (t *statsTransport) Unwrap() Transport { return t.inner }

func (t *statsTransport) Send(ctx context.Context, key TransferKey, tr core.Transfer, msg Message) error {
	// Size the payload before handing it to the inner transport: once Send
	// returns, the receiver may already have consumed the message and
	// recycled its buffer into the cluster pool, so the sender must not
	// touch msg afterwards.
	bytes := int64(len(msg.Rows.Data)) * 4
	if err := t.inner.Send(ctx, key, tr, msg); err != nil {
		return err
	}
	t.stats.sentBytes[tr.Src].Add(bytes)
	t.stats.sentMsgs[tr.Src].Add(1)
	if t.relayAware && len(tr.Vertices) > 0 {
		perVertex := bytes / int64(len(tr.Vertices))
		var relayed int64
		for _, v := range tr.Vertices {
			if int(t.owner[v]) != tr.Src {
				relayed += perVertex
			}
		}
		if relayed > 0 {
			t.stats.relayedBytes[tr.Src].Add(relayed)
		}
	}
	return nil
}

func (t *statsTransport) Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error) {
	msg, err := t.inner.Recv(ctx, key, tr)
	if err != nil {
		return Message{}, err
	}
	t.stats.recvBytes[tr.Dst].Add(int64(len(msg.Rows.Data)) * 4)
	t.stats.recvMsgs[tr.Dst].Add(1)
	return msg, nil
}
