package runtime

import (
	"fmt"
	"sync/atomic"
)

// CommStats counts actual data movement performed by the runtime, per GPU.
// Counters are updated atomically so concurrent clients can report while
// running; they accumulate across allgathers until Reset. Every client's
// stage loop counts its own successful transfers and adds them in when its
// program ends, so every transport path — forward, backward, retried,
// faulty, wire — is accounted uniformly.
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

// clientCounts is one client's tally of its successful transfers and its
// timed-out receives in one collective: plain integers the stage loop
// (Cluster.runClient) bumps and folds into CommStats once, when the
// client's program ends. A logical transfer counts once, however many
// retransmissions or duplicates the transport produced — the retry layer
// counts retries itself.
type clientCounts struct {
	sentBytes, sentMsgs, relayedBytes, recvBytes, recvMsgs, timeouts int64
}

// add folds client d's tally into the counters.
func (s *CommStats) add(d int, n *clientCounts) {
	s.sentBytes[d].Add(n.sentBytes)
	s.sentMsgs[d].Add(n.sentMsgs)
	s.relayedBytes[d].Add(n.relayedBytes)
	s.recvBytes[d].Add(n.recvBytes)
	s.recvMsgs[d].Add(n.recvMsgs)
	s.timeouts[d].Add(n.timeouts)
}
