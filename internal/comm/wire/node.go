package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dgcl/internal/core"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
)

// errLinkDown marks a socket-level failure; transports translate it into a
// runtime.DeviceDownError for the endpoint behind the dead link, feeding the
// same fail-stop recovery path a crash schedule does.
var errLinkDown = errors.New("wire: link down")

// retireWindow is how many past collective sequence numbers keep their demux
// tables: a new collective retires tables older than this, recycling frames
// stranded by a failed collective. Collectives are issued in lockstep and at
// most a handful are ever concurrently in flight, so a small window is safe.
const retireWindow = 16

// NodeSpec is one row of a run's address table: where the node's data
// listener accepts connections and which client ranks it hosts.
type NodeSpec struct {
	Addr  string
	Ranks []int
}

// entryKey demuxes a frame within one collective sequence: data frames by
// transfer key, exchange frames by rank.
type entryKey struct {
	exch bool
	a, b int32
}

func dataKey(k runtime.TransferKey) entryKey {
	return entryKey{a: int32(k.Stage), b: int32(k.Index)}
}

func exchKey(rank int) entryKey { return entryKey{exch: true, a: int32(rank)} }

// entry is one demux slot: a FIFO of arrived frames plus a wakeup signal for
// the (single) waiting receiver.
type entry struct {
	q  []Frame
	ch chan struct{}
}

type seqTable struct {
	entries map[entryKey]*entry
}

// Node is one process's wire endpoint: it hosts a set of client ranks, keeps
// one pooled connection per peer node (reused across every collective of the
// run), and demuxes inbound frames by (sequence, transfer) to waiting
// receivers. It implements runtime.TransportProvider and
// runtime.PeerExchange.
type Node struct {
	cfg   Config
	id    int
	specs []NodeSpec
	owner map[int32]int // device id -> hosting node id
	ln    net.Listener
	links map[int]*link

	ids []int // compact rank -> external device id (nil = identity)

	pool  *runtime.MatrixPool
	bytes *bytePool

	seq atomic.Uint64

	mu     sync.Mutex
	tables map[uint64]*seqTable
	minSeq uint64

	readers   sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewNode wraps a pre-opened listener (so its address can be published
// before the full address table exists) as node id's endpoint. Call Connect
// with the complete table to form the mesh.
func NewNode(cfg Config, id int, ln net.Listener) *Node {
	return &Node{
		cfg:    cfg,
		id:     id,
		ln:     ln,
		links:  make(map[int]*link),
		pool:   &runtime.MatrixPool{},
		bytes:  &bytePool{},
		tables: make(map[uint64]*seqTable),
		closed: make(chan struct{}),
	}
}

// Addr returns the data listener's address for the run's address table.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetDeviceIDs installs the compact-rank → external-device-id mapping for
// peer exchanges. After a degrade the address table (NodeSpec.Ranks, the
// owner map) keeps using external device ids while the trainer's exchange
// calls use compact ranks in [0, K'); this mapping bridges the two, exactly
// like the ids slice the cluster hands CollectiveTransport. Nil means
// identity (no degrade). Call before exchanging, never mid-exchange.
func (n *Node) SetDeviceIDs(ids []int) {
	n.ids = append([]int(nil), ids...)
}

// dev maps a compact rank to its external device id.
func (n *Node) dev(rank int) int32 {
	if n.ids == nil {
		return int32(rank)
	}
	return int32(n.ids[rank])
}

func (n *Node) isClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

// Close shears the whole endpoint down: the listener, every link, and every
// blocked sender/receiver. Peers observe connection failures and map this
// node's devices to DeviceDownError. It waits for the reader goroutines to
// exit (closing the sockets unblocks them immediately), so callers may run
// goroutine-leak checks right after. Close must not race Connect.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		close(n.closed)
		if n.ln != nil {
			n.ln.Close()
		}
		for _, l := range n.links {
			l.fail(errors.New("wire: node closed"))
		}
	})
	n.readers.Wait()
}

func (n *Node) checkHello(h hello, wantNode int) error {
	if wantNode >= 0 && int(h.nodeID) != wantNode {
		return fmt.Errorf("wire: handshake from node %d, want %d", h.nodeID, wantNode)
	}
	peer := int(h.nodeID)
	if peer < 0 || peer >= len(n.specs) || peer == n.id {
		return fmt.Errorf("wire: handshake from out-of-table node %d", h.nodeID)
	}
	if h.clusterID != n.cfg.ClusterID {
		return fmt.Errorf("wire: handshake cluster %q, want %q", h.clusterID, n.cfg.ClusterID)
	}
	if h.planSum != n.cfg.PlanSum {
		return fmt.Errorf("wire: handshake plan digest %#x, want %#x (peers compiled different plans)", h.planSum, n.cfg.PlanSum)
	}
	want := n.specs[peer].Ranks
	if len(h.ranks) != len(want) {
		return fmt.Errorf("wire: node %d claims %d ranks, table says %d", peer, len(h.ranks), len(want))
	}
	for i, r := range h.ranks {
		if int(r) != want[i] {
			return fmt.Errorf("wire: node %d rank table mismatch at %d: %d vs %d", peer, i, r, want[i])
		}
	}
	return nil
}

// Connect forms the full mesh against the address table: this node dials
// every lower-id peer and accepts a connection from every higher-id peer,
// each handshake carrying cluster ID, node identity, hosted ranks, and plan
// digest. On success one reader goroutine per link is running and the
// listener is closed (the mesh is complete; connections are pooled for the
// lifetime of the run).
func (n *Node) Connect(ctx context.Context, specs []NodeSpec) error {
	if n.id < 0 || n.id >= len(specs) {
		return fmt.Errorf("wire: node id %d outside %d-entry address table", n.id, len(specs))
	}
	n.specs = specs
	n.owner = make(map[int32]int)
	for id, sp := range specs {
		for _, r := range sp.Ranks {
			if prev, dup := n.owner[int32(r)]; dup {
				return fmt.Errorf("wire: rank %d hosted by both node %d and node %d", r, prev, id)
			}
			n.owner[int32(r)] = id
		}
	}
	myRanks := make([]int32, len(specs[n.id].Ranks))
	for i, r := range specs[n.id].Ranks {
		myRanks[i] = int32(r)
	}
	me := hello{nodeID: int32(n.id), clusterID: n.cfg.ClusterID, planSum: n.cfg.PlanSum, ranks: myRanks}

	conns := make(map[int]net.Conn)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, 2)

	// Dial every lower-id peer: write our hello, then read theirs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for peer := 0; peer < n.id; peer++ {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", n.specs[peer].Addr)
			if err != nil {
				errs[0] = fmt.Errorf("wire: dial node %d: %w", peer, err)
				return
			}
			if err := writeHello(conn, me, handshakeTimeout); err == nil {
				var ph hello
				if ph, err = readHello(conn, handshakeTimeout); err == nil {
					err = n.checkHello(ph, peer)
				}
			}
			if err != nil {
				conn.Close()
				errs[0] = fmt.Errorf("wire: handshake with node %d: %w", peer, err)
				return
			}
			mu.Lock()
			conns[peer] = conn
			mu.Unlock()
		}
	}()

	// Accept every higher-id peer: read their hello, then write ours.
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(handshakeTimeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		type deadliner interface{ SetDeadline(time.Time) error }
		if dl, ok := n.ln.(deadliner); ok {
			if err := dl.SetDeadline(deadline); err != nil {
				errs[1] = err
				return
			}
		}
		for need := len(specs) - 1 - n.id; need > 0; need-- {
			conn, err := n.ln.Accept()
			if err != nil {
				errs[1] = fmt.Errorf("wire: accept: %w", err)
				return
			}
			ph, err := readHello(conn, handshakeTimeout)
			if err == nil {
				err = n.checkHello(ph, -1)
			}
			if err == nil && int(ph.nodeID) < n.id {
				err = fmt.Errorf("wire: lower-id node %d dialed the wrong direction", ph.nodeID)
			}
			if err == nil {
				err = writeHello(conn, me, handshakeTimeout)
			}
			if err != nil {
				conn.Close()
				errs[1] = fmt.Errorf("wire: handshake: %w", err)
				return
			}
			mu.Lock()
			conns[int(ph.nodeID)] = conn
			mu.Unlock()
		}
	}()
	wg.Wait()
	if err := errors.Join(errs[0], errs[1]); err != nil {
		for _, c := range conns {
			c.Close()
		}
		return err
	}
	for peer, conn := range conns {
		l := newLink(n, peer, conn)
		n.links[peer] = l
		n.readers.Add(1)
		go func(l *link) {
			defer n.readers.Done()
			l.readLoop()
		}(l)
	}
	n.ln.Close()
	return nil
}

// route delivers one inbound frame to its demux slot, creating the slot on
// demand (a peer running slightly ahead sends frames for a collective this
// process has not started yet). Frames for retired sequences are dropped and
// their payloads recycled.
func (n *Node) route(f Frame) {
	var k entryKey
	if f.Type == frameExchange {
		k = exchKey(int(f.Rank))
	} else {
		k = dataKey(f.Key)
	}
	n.mu.Lock()
	if f.Seq < n.minSeq || n.isClosed() {
		n.mu.Unlock()
		if f.Rows != nil {
			n.pool.Put(f.Rows)
		}
		return
	}
	e := n.entryLocked(f.Seq, k)
	e.q = append(e.q, f)
	n.mu.Unlock()
	select {
	case e.ch <- struct{}{}:
	default:
	}
}

func (n *Node) entryLocked(seq uint64, k entryKey) *entry {
	tbl := n.tables[seq]
	if tbl == nil {
		tbl = &seqTable{entries: make(map[entryKey]*entry)}
		n.tables[seq] = tbl
	}
	e := tbl.entries[k]
	if e == nil {
		e = &entry{ch: make(chan struct{}, 1)}
		tbl.entries[k] = e
	}
	return e
}

// retireBelow drops demux tables for sequences before floor, recycling any
// payloads a failed collective stranded.
func (n *Node) retireBelow(floor uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if floor <= n.minSeq {
		return
	}
	n.minSeq = floor
	for s, tbl := range n.tables {
		if s >= floor {
			continue
		}
		for _, e := range tbl.entries {
			for _, f := range e.q {
				if f.Rows != nil {
					n.pool.Put(f.Rows)
				}
			}
		}
		delete(n.tables, s)
	}
}

// await blocks until a frame lands in (seq, k), the context ends, the link
// to the remote endpoint dies (DeviceDownError for remoteDev), or this node
// itself is closed (DeviceDownError for selfDev — a killed node's own
// clients blame their own device, keeping health verdicts consistent on
// every process).
func (n *Node) await(ctx context.Context, seq uint64, k entryKey, down <-chan struct{}, remoteDev, selfDev int32) (Frame, error) {
	n.mu.Lock()
	e := n.entryLocked(seq, k)
	n.mu.Unlock()
	pop := func() (Frame, bool) {
		n.mu.Lock()
		defer n.mu.Unlock()
		if len(e.q) == 0 {
			return Frame{}, false
		}
		f := e.q[0]
		e.q = e.q[1:]
		return f, true
	}
	for {
		if f, ok := pop(); ok {
			return f, nil
		}
		select {
		case <-e.ch:
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		case <-n.closed:
			return Frame{}, &runtime.DeviceDownError{Device: int(selfDev)}
		case <-down:
			// Drain a frame that raced the failure before giving up.
			if f, ok := pop(); ok {
				return f, nil
			}
			// A killed node has both its own closed channel and its sheared
			// links ready, and select picks among ready cases at random —
			// re-check self first so the blame stays deterministic (a
			// receiving client parks here mid-kill, where a random remote
			// blame would convict a healthy device).
			select {
			case <-n.closed:
				return Frame{}, &runtime.DeviceDownError{Device: int(selfDev)}
			default:
			}
			return Frame{}, &runtime.DeviceDownError{Device: int(remoteDev)}
		}
	}
}

// CollectiveTransport implements runtime.TransportProvider: each collective
// gets the next sequence number over the pooled mesh. Sequence counters stay
// aligned across processes because every process issues its collectives and
// exchanges in the same deterministic order.
func (n *Node) CollectiveTransport(stages [][]core.Transfer, ids []int) runtime.Transport {
	seq := n.seq.Add(1)
	if seq > retireWindow {
		n.retireBelow(seq - retireWindow)
	}
	return &meshTransport{seq: seq, nodes: map[int]*Node{n.id: n}, owner: n.owner, ids: ids, pool: n.pool}
}

// meshTransport routes one collective's transfers over a set of wire nodes.
// In a worker process the set is the single local node; the loopback fabric
// spans all of them (every client runs in-process, every cross-client
// payload still crosses a real socket). Send encodes the message straight
// from its rows (for an in-place message, the sender's own storage) before
// returning, and Recv yields pooled buffers the caller owns, so it is a
// runtime.PooledTransport.
type meshTransport struct {
	seq   uint64
	nodes map[int]*Node
	owner map[int32]int
	ids   []int
	pool  *runtime.MatrixPool
}

// RecycleMessage takes a consumed receive buffer back into the wire pool.
func (t *meshTransport) RecycleMessage(msg runtime.Message) {
	if msg.Rows != nil {
		t.pool.Put(msg.Rows)
	}
}

func (t *meshTransport) dev(rank int) int32 {
	if t.ids == nil {
		return int32(rank)
	}
	return int32(t.ids[rank])
}

func (t *meshTransport) Send(ctx context.Context, key runtime.TransferKey, tr core.Transfer, msg runtime.Message) error {
	srcDev, dstDev := t.dev(tr.Src), t.dev(tr.Dst)
	srcNode := t.nodes[t.owner[srcDev]]
	if srcNode == nil {
		return fmt.Errorf("wire: %s: src device %d not hosted in this process", key, srcDev)
	}
	if srcNode.isClosed() {
		return &runtime.DeviceDownError{Device: int(srcDev)}
	}
	dstOwner, ok := t.owner[dstDev]
	if !ok {
		return fmt.Errorf("wire: %s: dst device %d not in the rank table", key, dstDev)
	}
	rows, cols := msg.NumRows(), msg.Cols()
	if dstOwner == srcNode.id {
		// Same-node transfer: copy into a pooled buffer and route locally
		// (identical ownership semantics to the socket path).
		buf := t.pool.Get(rows, cols)
		for i := 0; i < rows; i++ {
			copy(buf.Data[i*cols:], msg.Row(i))
		}
		srcNode.route(Frame{Type: frameData, Seq: t.seq, Key: key, Src: srcDev, Dst: dstDev, MsgSum: msg.Checksum, Rows: buf})
		return nil
	}
	lk := srcNode.links[dstOwner]
	if lk == nil {
		return fmt.Errorf("wire: %s: no link from node %d to node %d", key, srcNode.id, dstOwner)
	}
	need := headerSize + dataHeaderSize + 4*rows*cols
	scratch := srcNode.bytes.get(need)[:0]
	scratch = encodeFrame(scratch, &Frame{Type: frameData, Seq: t.seq, Key: key, Src: srcDev, Dst: dstDev, MsgSum: msg.Checksum, Msg: msg})
	err := lk.sendFrame(ctx, scratch)
	srcNode.bytes.put(scratch)
	if err != nil {
		if errors.Is(err, errLinkDown) {
			if srcNode.isClosed() {
				return &runtime.DeviceDownError{Device: int(srcDev)}
			}
			return &runtime.DeviceDownError{Device: int(dstDev)}
		}
		return err
	}
	return nil
}

func (t *meshTransport) Recv(ctx context.Context, key runtime.TransferKey, tr core.Transfer) (runtime.Message, error) {
	srcDev, dstDev := t.dev(tr.Src), t.dev(tr.Dst)
	dstNode := t.nodes[t.owner[dstDev]]
	if dstNode == nil {
		return runtime.Message{}, fmt.Errorf("wire: %s: dst device %d not hosted in this process", key, dstDev)
	}
	var down <-chan struct{}
	if srcOwner := t.owner[srcDev]; srcOwner != dstNode.id {
		lk := dstNode.links[srcOwner]
		if lk == nil {
			return runtime.Message{}, fmt.Errorf("wire: %s: no link from node %d to node %d", key, dstNode.id, srcOwner)
		}
		down = lk.closed
	}
	f, err := dstNode.await(ctx, t.seq, dataKey(key), down, srcDev, dstDev)
	if err != nil {
		return runtime.Message{}, err
	}
	return runtime.Message{Rows: f.Rows, Checksum: f.MsgSum}, nil
}

// selfDev is the representative device this node blames when it is itself
// closed mid-exchange.
func (n *Node) selfDev() int32 {
	if len(n.specs[n.id].Ranks) > 0 {
		return int32(n.specs[n.id].Ranks[0])
	}
	return int32(n.id)
}

// broadcast sends one encoded exchange frame to every peer link.
func (n *Node) broadcast(ctx context.Context, f *Frame, need int) error {
	for peer, lk := range n.links {
		scratch := n.bytes.get(need)[:0]
		scratch = encodeFrame(scratch, f)
		err := lk.sendFrame(ctx, scratch)
		n.bytes.put(scratch)
		if err != nil {
			if errors.Is(err, errLinkDown) {
				return &runtime.DeviceDownError{Device: int(n.peerDev(peer))}
			}
			return err
		}
	}
	return nil
}

// peerDev is the representative device of a peer node (its first rank).
func (n *Node) peerDev(peer int) int32 {
	if len(n.specs[peer].Ranks) > 0 {
		return int32(n.specs[peer].Ranks[0])
	}
	return int32(peer)
}

// collect receives the exchange frame for every remotely-owned rank, checks
// the tag, and hands it to sink.
func (n *Node) collect(ctx context.Context, seq uint64, tagSum uint64, tag string, count int, sink func(rank int, f Frame) error) error {
	for r := 0; r < count; r++ {
		dev := n.dev(r)
		owner, ok := n.owner[dev]
		if !ok {
			return fmt.Errorf("wire: exchange %q: device %d (rank %d) not in the rank table", tag, dev, r)
		}
		if owner == n.id {
			continue
		}
		lk := n.links[owner]
		if lk == nil {
			return fmt.Errorf("wire: exchange %q: no link to node %d", tag, owner)
		}
		f, err := n.await(ctx, seq, exchKey(r), lk.closed, dev, n.selfDev())
		if err != nil {
			return err
		}
		if f.TagSum != tagSum {
			return fmt.Errorf("wire: exchange tag mismatch for rank %d (processes desynced; got %#x, want %#x for %q)", r, f.TagSum, tagSum, tag)
		}
		if err := sink(r, f); err != nil {
			return err
		}
	}
	return nil
}

// ExchangeMatrices implements runtime.PeerExchange: each process broadcasts
// its locally-owned entries and fills the rest from their owners. All
// processes issue the same tags in the same order, so the shared sequence
// counter keeps streams aligned.
func (n *Node) ExchangeMatrices(ctx context.Context, tag string, local []int, vals []*tensor.Matrix) error {
	seq := n.seq.Add(1)
	if seq > retireWindow {
		n.retireBelow(seq - retireWindow)
	}
	ts := hashTag(tag)
	for _, r := range local {
		m := vals[r]
		need := headerSize + exchangeHeaderSize + 4*len(m.Data)
		f := Frame{Type: frameExchange, Seq: seq, Rank: int32(r), Kind: kindF32, TagSum: ts, Rows: m}
		if err := n.broadcast(ctx, &f, need); err != nil {
			return err
		}
	}
	return n.collect(ctx, seq, ts, tag, len(vals), func(r int, f Frame) error {
		if f.Rows == nil || f.Rows.Rows != vals[r].Rows || f.Rows.Cols != vals[r].Cols {
			return fmt.Errorf("wire: exchange %q: rank %d payload shape mismatch", tag, r)
		}
		copy(vals[r].Data, f.Rows.Data)
		n.pool.Put(f.Rows)
		return nil
	})
}

// ExchangeFloat64s implements runtime.PeerExchange for per-rank scalars
// (losses), preserving the exact float64 bits so rank-ordered sums stay
// bit-identical across processes.
func (n *Node) ExchangeFloat64s(ctx context.Context, tag string, local []int, vals []float64) error {
	seq := n.seq.Add(1)
	if seq > retireWindow {
		n.retireBelow(seq - retireWindow)
	}
	ts := hashTag(tag)
	for _, r := range local {
		f := Frame{Type: frameExchange, Seq: seq, Rank: int32(r), Kind: kindF64, TagSum: ts, F64: []float64{vals[r]}}
		if err := n.broadcast(ctx, &f, headerSize+exchangeHeaderSize+8); err != nil {
			return err
		}
	}
	return n.collect(ctx, seq, ts, tag, len(vals), func(r int, f Frame) error {
		if f.Kind != kindF64 || len(f.F64) != 1 {
			return fmt.Errorf("wire: exchange %q: rank %d payload is not a scalar", tag, r)
		}
		vals[r] = f.F64[0]
		return nil
	})
}
