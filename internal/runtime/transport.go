package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dgcl/internal/core"
	"dgcl/internal/fnv64"
	"dgcl/internal/tensor"
)

// The transport layer abstracts the per-transfer peer buffers + done flags of
// §6.1 behind an interface so the runtime can run over different media: the
// default in-memory channel transport or the TCP wire transport
// (internal/comm/wire, plugged in through TransportProvider), optionally
// under a fault-injecting wrapper for chaos testing (which seals and
// verifies its own checksums) and a retry decorator that retransmits what it
// drops or damages. Crash checks, the receive the collective's deadline
// ends, and transfer counting are not transport layers: each client's stage
// loop handles them (Cluster.runClient).

// TransferKey addresses one transfer of one (flattened) stage within a
// single collective. Stage indexes the flattened stage list the transport
// was built for; Index is the transfer's position within that stage.
type TransferKey struct {
	Stage, Index int
}

func (k TransferKey) String() string { return fmt.Sprintf("stage %d transfer %d", k.Stage+1, k.Index) }

// Message is one transfer's payload: the embedding (or gradient) rows for
// the transfer's vertex list, in list order. It takes one of two forms.
//
// A materialised message carries the rows in Rows. Transports deliver this
// form, and NewMessage builds it.
//
// An in-place message (Rows nil) hands over the sender's rows themselves:
// the sender's slot storage and the send's compiled slot list, so the
// receiver copies or adds each row straight from where the sender keeps it
// — §6.1's receiver reading the sender's buffer once the done flag is set.
// Only the stage loop makes them, and only for the in-memory channels and a
// PooledTransport's Send, which reads the rows before it returns; the rules
// that keep a sent row unchanged until its last reader is done are in
// program.go. NumRows, Cols and Row read either form.
// Checksum is the fault decorator's business: it seals what it sends and
// verifies what it receives. Nothing else reads it; the wire carries it.
type Message struct {
	Rows     *tensor.Matrix
	Checksum uint64

	from  *slotRows
	slots []int32
}

// NumRows returns the number of payload rows.
func (m Message) NumRows() int {
	if m.Rows != nil {
		return m.Rows.Rows
	}
	return len(m.slots)
}

// Cols returns the payload's row width.
func (m Message) Cols() int {
	if m.Rows != nil {
		return m.Rows.Cols
	}
	return m.from.cols
}

// Row returns payload row i. For an in-place message it aliases the
// sender's storage: read it, never write it or keep it.
func (m Message) Row(i int) []float32 {
	if m.Rows != nil {
		c := m.Rows.Cols
		return m.Rows.Data[i*c : i*c+c]
	}
	return m.from.row(m.slots[i])
}

// NewMessage seals a payload with its checksum.
func NewMessage(rows *tensor.Matrix) Message {
	return Message{Rows: rows, Checksum: payloadChecksum(rows)}
}

// Valid reports whether the payload, in either form, still matches its
// checksum.
func (m Message) Valid() bool { return m.Checksum == m.sum() }

// sum is the payload's seal: FNV-64a over every float's bits, row by row,
// read through Row so an in-place message hashes like its materialised copy.
func (m Message) sum() uint64 {
	h := fnv64.New()
	for i := range m.NumRows() {
		for _, f := range m.Row(i) {
			h = h.U32(math.Float32bits(f))
		}
	}
	return uint64(h)
}

func payloadChecksum(rows *tensor.Matrix) uint64 { return Message{Rows: rows}.sum() }

// Transport moves one collective's messages between clients. A Transport
// instance is built per collective (the stage layout is fixed at
// construction) and used concurrently by all K client goroutines; both
// methods must be safe for concurrent use on distinct keys.
//
// Send delivers the payload for key and returns once the transport has
// accepted it — or an error when the transport detected the delivery failed
// (dropped, corrupted in flight, receiver buffer full). Recv blocks until
// the payload for key arrives, the context is done, or the transport gives
// up. The tr argument carries the transfer's endpoints and vertex list for
// accounting and failure attribution; implementations must not mutate it.
type Transport interface {
	Send(ctx context.Context, key TransferKey, tr core.Transfer, msg Message) error
	Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error)
}

// TransportProvider supplies the base transport per collective along with
// the cluster's client->device mapping. A provider can keep long-lived state
// (pooled sockets, sequence counters) across collectives and routes
// transfers by external device id — so a degraded cluster rebuilt over
// survivors keeps addressing the same endpoints. The wire transport
// (internal/comm/wire) is the canonical implementation.
type TransportProvider interface {
	CollectiveTransport(stages [][]core.Transfer, deviceIDs []int) Transport
}

// PooledTransport marks transports that own their payload memory: Send
// serializes the payload before returning, so the stage loop hands it
// in-place messages (the sender may write those rows again once Send
// returns), and Recv yields a buffer from the transport's own pool, which
// the cluster hands back through RecycleMessage once consumed so
// steady-state epochs stay allocation-flat over any medium. A provider's
// transport that is not a PooledTransport gets materialised messages it
// may keep.
type PooledTransport interface {
	Transport
	RecycleMessage(msg Message)
}

// PeerExchange synchronizes per-rank values across the processes of a
// multi-process run. vals holds one entry per client rank; entries for the
// ranks in local are broadcast to every peer process and the remaining
// entries are filled in from their owning processes. tag disambiguates
// concurrent exchanges (all processes must issue the same tags in the same
// order). Implementations must be deterministic: the same inputs produce
// bit-identical vals on every process.
type PeerExchange interface {
	ExchangeMatrices(ctx context.Context, tag string, local []int, vals []*tensor.Matrix) error
	ExchangeFloat64s(ctx context.Context, tag string, local []int, vals []float64) error
}

// Sentinel failures a transport can report. Decorators treat these as
// retryable; anything else is a hard error.
var (
	// ErrDropped: the message was lost in flight and the sender detected it
	// (the simulated NACK of a reliable-delivery layer).
	ErrDropped = errors.New("message dropped")
	// ErrCorrupt: the payload failed its checksum.
	ErrCorrupt = errors.New("message corrupt")
	// ErrBackpressure: the receiver's buffer was full and the message was
	// discarded.
	ErrBackpressure = errors.New("receiver buffer full")
)

// IsRetryable reports whether err is a transient transport failure that a
// retransmission can fix.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrDropped) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBackpressure)
}

// TransportError is the structured failure of one transfer: the retry
// decorator's when a send exhausts its budget, the stage loop's when the
// collective's deadline or cancel ends a receive. It says which operation,
// which transfer, between whom, and after how many attempts.
type TransportError struct {
	Op       string // "send" or "recv"
	Key      TransferKey
	Src, Dst int
	Attempts int
	Err      error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("transport %s %s (%d->%d) failed after %d attempt(s): %v",
		e.Op, e.Key, e.Src, e.Dst, e.Attempts, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// chanBuffer is the per-transfer channel capacity. The unique sender of a
// fault-free transfer delivers exactly once, but fault injection can add
// duplicates and retransmissions; a deep-enough buffer keeps Send
// non-blocking (overflow is reported as ErrBackpressure and handled like a
// drop, never a deadlock). A program's cached channels carry only
// fault-free collectives, so they hold one message per transfer
// (acquireStack).
const chanBuffer = 8

// chanTransport is the default in-memory transport: one buffered channel
// per transfer plays the role of the §6.1 peer buffer plus done flag — the
// send is the sender setting its done flag after filling the buffer, the
// receive is the peer retrieving the data when it observes the flag.
type chanTransport struct {
	chans [][]chan Message
}

// NewChanTransport builds the in-memory channel transport for a stage
// layout.
func NewChanTransport(stages [][]core.Transfer) Transport {
	return newChanTransport(stages, chanBuffer)
}

// newChanTransport builds the channel transport with depth slots per
// transfer.
func newChanTransport(stages [][]core.Transfer, depth int) Transport {
	t := &chanTransport{chans: make([][]chan Message, len(stages))}
	for si, st := range stages {
		t.chans[si] = make([]chan Message, len(st))
		for ti := range st {
			t.chans[si][ti] = make(chan Message, depth)
		}
	}
	return t
}

func (t *chanTransport) channel(key TransferKey) (chan Message, error) {
	if key.Stage < 0 || key.Stage >= len(t.chans) || key.Index < 0 || key.Index >= len(t.chans[key.Stage]) {
		return nil, fmt.Errorf("transport: no channel for %s", key)
	}
	return t.chans[key.Stage][key.Index], nil
}

func (t *chanTransport) Send(ctx context.Context, key TransferKey, tr core.Transfer, msg Message) error {
	ch, err := t.channel(key)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case ch <- msg:
		return nil
	default:
		return ErrBackpressure
	}
}

func (t *chanTransport) Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error) {
	ch, err := t.channel(key)
	if err != nil {
		return Message{}, err
	}
	select {
	case msg := <-ch:
		return msg, nil
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}
