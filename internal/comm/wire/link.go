package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dgcl/internal/fnv64"
)

// Config identifies the run a wire endpoint belongs to.
type Config struct {
	// ClusterID must match across every process of one run; the handshake
	// rejects strangers.
	ClusterID string
	// PlanSum is PlanDigest of the communication plan this endpoint compiled.
	// Handshakes reject peers whose plans differ — a divergent plan would
	// deadlock mid-collective, far from the cause.
	PlanSum uint64
}

const (
	// ioTimeout bounds every mid-frame socket read and every frame write.
	ioTimeout = 10 * time.Second
	// idleTimeout is the reader's re-arm period while a link sits idle
	// between collectives (idle timeouts are not failures).
	idleTimeout = 30 * time.Second
	// handshakeTimeout bounds the hello exchange; it is generous because a
	// peer may spend a long time building its system before connecting.
	handshakeTimeout = 60 * time.Second
)

// creditWindow is the per-link in-flight frame window: a sender holds one
// credit per unreturned frame and blocks (cancellably) when the window is
// exhausted. The receiver owes a credit for each frame it routes and pays
// them back in one credit frame carrying the count: when creditWindow/2 are
// owed, and whenever its read buffer runs dry, before it can block on the
// socket. That cannot deadlock: a sender blocks only with creditWindow
// frames unreturned, all of them already written whole, and the reader
// routes every one and pays for them before it waits for more.
const creditWindow = 64

// readBufSize is a link's read buffer: one socket read serves as many
// frame headers and bodies as have arrived.
const readBufSize = 64 << 10

// bytePool recycles frame serialization and body scratch buffers, binned by
// power-of-two capacity like the runtime matrix pool (and like it,
// deliberately not a sync.Pool, for deterministic allocation counts).
type bytePool struct {
	mu sync.Mutex
	// free[cl] holds the buffers of capacity 1<<cl.
	free [64][][]byte
}

func (p *bytePool) get(n int) []byte {
	if n == 0 {
		return nil
	}
	cl := bits.Len(uint(n - 1))
	p.mu.Lock()
	if bs := p.free[cl]; len(bs) > 0 {
		b := bs[len(bs)-1]
		p.free[cl] = bs[:len(bs)-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<cl)
}

func (p *bytePool) put(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	cl := bits.Len(uint(c)) - 1
	p.mu.Lock()
	p.free[cl] = append(p.free[cl], b[:0])
	p.mu.Unlock()
}

// link is one pooled connection to a peer node, reused across every
// collective of the run. It owns the socket, the outbound credit window, and
// the reader goroutine that demuxes inbound frames into the node's tables.
type link struct {
	node    *Node
	peer    int // peer node id
	conn    net.Conn
	credits chan struct{}

	// The reader goroutine's own: the buffered socket reader, and the
	// credits owed to the peer for frames routed but not yet paid back.
	rd   *bufio.Reader
	owed uint32

	wmu sync.Mutex // serializes frame writes

	closed    chan struct{}
	closeOnce sync.Once
	err       atomic.Value // error; first failure, for diagnostics
}

func newLink(n *Node, peer int, conn net.Conn) *link {
	l := &link{node: n, peer: peer, conn: conn, rd: bufio.NewReaderSize(conn, readBufSize), closed: make(chan struct{})}
	l.credits = make(chan struct{}, creditWindow)
	for i := 0; i < creditWindow; i++ {
		l.credits <- struct{}{} //dgclvet:ignore ctxbound filling a fresh channel to its exact capacity; cannot block
	}
	return l
}

// fail shears the link down: first caller records the cause, everyone
// blocked on it unblocks, the socket closes (which also unblocks the reader).
func (l *link) fail(err error) {
	l.closeOnce.Do(func() {
		if err != nil {
			l.err.Store(err)
		}
		close(l.closed)
		l.conn.Close()
	})
}

func (l *link) isClosed() bool {
	select {
	case <-l.closed:
		return true
	default:
		return false
	}
}

// readFull fills p from the buffered socket reader. A read the buffer
// cannot serve goes to the socket, and only then: first the owed credits go
// back (the reader may be about to block, and a sender waiting on credits
// must not wait on it), then the read deadline is armed. With idleOK,
// timeouts while no byte of the next frame has arrived simply re-arm (links
// idle between collectives); once a frame has started, a stall longer than
// ioTimeout is a peer failure.
func (l *link) readFull(p []byte, idleOK bool) error {
	got := 0
	for got < len(p) {
		if l.rd.Buffered() == 0 {
			l.returnCredits()
			d := ioTimeout
			if idleOK && got == 0 {
				d = idleTimeout
			}
			if err := l.conn.SetReadDeadline(time.Now().Add(d)); err != nil {
				return err
			}
		}
		n, err := l.rd.Read(p[got:])
		got += n
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && idleOK && got == 0 && !l.isClosed() {
				continue
			}
			return err
		}
	}
	return nil
}

// writeFrame writes one encoded frame under the write mutex with an armed
// write deadline (tightened by ctx's deadline when it is sooner).
func (l *link) writeFrame(ctx context.Context, buf []byte) error {
	if l.isClosed() {
		return l.downErr()
	}
	deadline := time.Now().Add(ioTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := l.conn.SetWriteDeadline(deadline); err != nil {
		l.fail(err)
		return l.downErr()
	}
	//dgclvet:ignore lockdisc wmu exists to serialize whole-frame writes on the shared conn; the write deadline armed above bounds the hold, and no other lock nests inside wmu
	if _, err := l.conn.Write(buf); err != nil {
		l.fail(err)
		return l.downErr()
	}
	return nil
}

// sendFrame acquires one window credit (cancellably) and writes the frame.
func (l *link) sendFrame(ctx context.Context, buf []byte) error {
	select {
	case <-l.credits:
	case <-ctx.Done():
		return ctx.Err()
	case <-l.closed:
		return l.downErr()
	}
	return l.writeFrame(ctx, buf)
}

// returnCredits pays the owed credits back to the peer in one credit frame.
// Credit frames themselves bypass the window (they are what refills it).
func (l *link) returnCredits() {
	if l.owed == 0 {
		return
	}
	buf := l.node.bytes.get(headerSize + 4)[:0]
	buf = encodeFrame(buf, &Frame{Type: frameCredit, Credits: l.owed})
	l.owed = 0
	err := l.writeFrame(context.Background(), buf)
	l.node.bytes.put(buf)
	_ = err // a failed credit write already sheared the link down
}

// release refills local send credits granted back by the peer. Overflow is
// dropped (can only happen on a misbehaving peer; the window just shrinks).
func (l *link) release(n uint32) {
	for ; n > 0; n-- {
		select {
		case l.credits <- struct{}{}:
		default:
			return
		}
	}
}

// downErr is the failure for operations on a dead link; the transport maps
// it to a DeviceDownError naming the transfer's remote endpoint.
func (l *link) downErr() error {
	if v := l.err.Load(); v != nil {
		if err, ok := v.(error); ok {
			return fmt.Errorf("%w: %v", errLinkDown, err)
		}
	}
	return errLinkDown
}

// readLoop demuxes inbound frames until the link dies. Any framing error is
// fatal to the link — TCP does not corrupt, so a frame checksum mismatch
// means a codec bug or a desynced stream, and shearing the link down maps it
// to the same fail-stop path as a peer crash.
func (l *link) readLoop() {
	hdr := make([]byte, headerSize)
	for {
		if err := l.readFull(hdr, true); err != nil {
			l.fail(err)
			return
		}
		h, err := parseHeader(hdr)
		if err != nil {
			l.fail(err)
			return
		}
		body := l.node.bytes.get(h.length)
		if err := l.readFull(body, false); err != nil {
			l.node.bytes.put(body)
			l.fail(err)
			return
		}
		if got := fnv64.SumLanes(body); got != h.sum {
			l.node.bytes.put(body)
			l.fail(fmt.Errorf("wire: frame checksum mismatch from node %d", l.peer))
			return
		}
		f, err := decodeBody(h.typ, body, l.node.pool)
		l.node.bytes.put(body)
		if err != nil {
			l.fail(err)
			return
		}
		switch f.Type {
		case frameCredit:
			l.release(f.Credits)
		default:
			l.node.route(f)
			if l.owed++; l.owed >= creditWindow/2 {
				l.returnCredits()
			}
		}
	}
}

// hello is the handshake each side sends when a connection is established.
type hello struct {
	nodeID    int32
	clusterID string
	planSum   uint64
	ranks     []int32
}

const (
	maxClusterIDLen = 256
	maxHelloRanks   = 1 << 16
)

var helloMagic = [4]byte{'D', 'G', 'W', 'H'}

func encodeHello(h hello) []byte {
	buf := append([]byte(nil), helloMagic[:]...)
	buf = append(buf, wireVersion)
	buf = appendI32(buf, h.nodeID)
	buf = appendU32(buf, uint32(len(h.clusterID)))
	buf = append(buf, h.clusterID...)
	buf = appendU64(buf, h.planSum)
	buf = appendU32(buf, uint32(len(h.ranks)))
	for _, r := range h.ranks {
		buf = appendI32(buf, r)
	}
	return buf
}

// readHello reads and validates a handshake from conn under an armed
// deadline, with the same cap-before-materialize discipline as frames.
func readHello(conn net.Conn, timeout time.Duration) (hello, error) {
	if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return hello{}, err
	}
	fixed := make([]byte, 13)
	if err := connReadFull(conn, fixed); err != nil {
		return hello{}, fmt.Errorf("wire: handshake read: %w", err)
	}
	if [4]byte(fixed[:4]) != helloMagic {
		return hello{}, fmt.Errorf("wire: bad handshake magic %q", fixed[:4])
	}
	if fixed[4] != wireVersion {
		return hello{}, fmt.Errorf("wire: handshake version %d, want %d", fixed[4], wireVersion)
	}
	var h hello
	h.nodeID = int32(binary.LittleEndian.Uint32(fixed[5:]))
	idLen := binary.LittleEndian.Uint32(fixed[9:])
	if idLen > maxClusterIDLen {
		return hello{}, fmt.Errorf("wire: handshake cluster id %d bytes exceeds cap %d", idLen, maxClusterIDLen)
	}
	rest := make([]byte, int(idLen)+12)
	if err := connReadFull(conn, rest); err != nil {
		return hello{}, fmt.Errorf("wire: handshake read: %w", err)
	}
	h.clusterID = string(rest[:idLen])
	h.planSum = binary.LittleEndian.Uint64(rest[idLen:])
	nRanks := binary.LittleEndian.Uint32(rest[idLen+8:])
	if nRanks > maxHelloRanks {
		return hello{}, fmt.Errorf("wire: handshake rank list %d entries exceeds cap %d", nRanks, maxHelloRanks)
	}
	ranks := make([]byte, 4*int(nRanks))
	if err := connReadFull(conn, ranks); err != nil {
		return hello{}, fmt.Errorf("wire: handshake read: %w", err)
	}
	h.ranks = make([]int32, nRanks)
	for i := range h.ranks {
		h.ranks[i] = int32(binary.LittleEndian.Uint32(ranks[4*i:]))
	}
	return h, nil
}

// connReadFull fills p from conn; the caller has already armed a read
// deadline on conn.
func connReadFull(conn net.Conn, p []byte) error {
	for got := 0; got < len(p); {
		n, err := conn.Read(p[got:]) //dgclvet:ignore ctxbound every caller arms the read deadline; the helper cannot know the timeout
		got += n
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHello sends this node's handshake under an armed write deadline.
func writeHello(conn net.Conn, h hello, timeout time.Duration) error {
	if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := conn.Write(encodeHello(h)); err != nil {
		return fmt.Errorf("wire: handshake write: %w", err)
	}
	return nil
}
