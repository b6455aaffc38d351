package runtime

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"dgcl/internal/core"
	"dgcl/internal/tensor"
	"dgcl/internal/testutil"
)

// In-place transfer battery (program.go, "In-place transfers"). A channel
// send hands the receiver the sender's rows themselves, so three rules keep
// results exact: no sender writes a row after handing it over, a backward
// relay takes all its adds before its one send, and no two concurrent
// collectives share a program's relay arenas. Each test below fails when one
// rule is broken, whichever way the clients happen to interleave.

// snapshotTransport is the channel transport plus a record of every in-place
// message a receiver took: the message and a copy of its rows as they were
// when Recv returned.
type snapshotTransport struct {
	Transport
	mu   sync.Mutex
	seen []snapshot
}

type snapshot struct {
	key  TransferKey
	msg  Message
	rows []float32
}

func (t *snapshotTransport) Recv(ctx context.Context, key TransferKey, tr core.Transfer) (Message, error) {
	msg, err := t.Transport.Recv(ctx, key, tr)
	if err == nil && msg.Rows == nil {
		var rows []float32
		for i := 0; i < msg.NumRows(); i++ {
			rows = append(rows, msg.Row(i)...)
		}
		t.mu.Lock()
		t.seen = append(t.seen, snapshot{key, msg, rows})
		t.mu.Unlock()
	}
	return msg, err
}

// check requires every recorded message's rows, read again now that the
// collective is over, to be what its receiver was handed, then forgets them.
// It returns how many messages it checked.
func (t *snapshotTransport) check(tb testing.TB, what string) int {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.seen {
		for i := 0; i < s.msg.NumRows(); i++ {
			row := s.msg.Row(i)
			for j, x := range row {
				if math.Float32bits(x) != math.Float32bits(s.rows[i*len(row)+j]) {
					tb.Fatalf("%s, %s: sent row %d changed after its receiver took it (%v, then %v)", what, s.key, i, s.rows[i*len(row)+j], x)
				}
			}
		}
	}
	n := len(t.seen)
	t.seen = t.seen[:0]
	return n
}

// installSnapshots makes the cached state of c's program for one direction
// run over a snapshotTransport, so every later collective on that program
// (the state is reused while collectives succeed) is recorded.
func installSnapshots(t *testing.T, c *Cluster, backward bool) *snapshotTransport {
	t.Helper()
	prog, err := c.program(backward)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.cache.acquire(c.K)
	rec := &snapshotTransport{Transport: NewChanTransport(prog.stages)}
	st.chans = rec
	prog.cache.release(st, false)
	return rec
}

// TestInPlaceRowsStayPutUntilCollectiveEnds runs both directions twice over
// the property battery and requires, for every in-place message, that its
// rows read after the collective are the rows its receiver was handed, and
// that the results are bit-identical to the legacy loops. Together the two
// checks leave a sender that writes a sent row (clearing its arena after its
// last send, say, or sending a relay gradient before its last add) no
// interleaving to hide in: if the receiver read before the write, the rows
// changed after they were handed over; if it read after, it landed the wrong
// value. The second run of each direction works in the arenas the first
// left behind.
func TestInPlaceRowsStayPutUntilCollectiveEnds(t *testing.T) {
	for _, pc := range propertyCases() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			c, rel := buildCase(t, pc)
			local := make([]*tensor.Matrix, pc.k)
			gradFull := make([]*tensor.Matrix, pc.k)
			for d := 0; d < pc.k; d++ {
				local[d] = tensor.New(len(rel.Local[d]), pc.cols).FillRandom(pc.seed + int64(d))
				lg := c.Locals[d]
				gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, pc.cols).FillRandom(pc.seed + 100 + int64(d))
			}
			wantFwd, err := legacyForwardAllgather(c, local)
			if err != nil {
				t.Fatal(err)
			}
			wantBwd, err := legacyBackwardAllgather(c, gradFull)
			if err != nil {
				t.Fatal(err)
			}
			fwd, bwd := installSnapshots(t, c, false), installSnapshots(t, c, true)
			for run := 1; run <= 2; run++ {
				got, err := c.Allgather(local)
				if err != nil {
					t.Fatal(err)
				}
				if fwd.check(t, "forward") == 0 {
					t.Fatal("no in-place message recorded: the check is vacuous")
				}
				grads, err := c.BackwardAllgather(gradFull)
				if err != nil {
					t.Fatal(err)
				}
				bwd.check(t, "backward")
				for d := 0; d < pc.k; d++ {
					if diff := tensor.MaxAbsDiff(got[d], wantFwd[d]); diff != 0 {
						t.Fatalf("run %d, GPU %d: forward differs from the legacy loops by %v", run, d, diff)
					}
					if diff := tensor.MaxAbsDiff(grads[d], wantBwd[d]); diff != 0 {
						t.Fatalf("run %d, GPU %d: backward differs from the legacy loops by %v", run, d, diff)
					}
				}
			}
		})
	}
}

// TestConcurrentCollectivesMatchSerial runs two goroutines of 200
// forward+backward rounds each on one cluster, on different inputs, and
// requires every result to be bit-identical to the serial answer. Two
// collectives on one program at once must not share its relay arenas: the
// second runs on a fresh state. A shared arena set would let one collective
// overwrite relay rows the other's receivers are reading (and -race reports
// the unordered writes).
func TestConcurrentCollectivesMatchSerial(t *testing.T) {
	c, _, _ := allocCluster(t)
	const cols, rounds = 8, 200
	type inputs struct{ local, gradFull []*tensor.Matrix }
	var in [2]inputs
	for g := range in {
		in[g].local = make([]*tensor.Matrix, c.K)
		in[g].gradFull = make([]*tensor.Matrix, c.K)
		for d := 0; d < c.K; d++ {
			lg := c.Locals[d]
			in[g].local[d] = tensor.New(lg.NumLocal, cols).FillRandom(int64(10*g + d + 1))
			in[g].gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, cols).FillRandom(int64(10*g + d + 50))
		}
	}
	prog, err := c.program(false)
	if err != nil {
		t.Fatal(err)
	}
	relay := 0
	for d := range prog.clients {
		relay += prog.clients[d].arenaRows
	}
	if relay == 0 {
		t.Fatal("the forward program relays no rows: nothing here exercises an arena")
	}
	var want [2][2][]*tensor.Matrix
	for g := range in {
		if want[g][0], err = c.Allgather(in[g].local); err != nil {
			t.Fatal(err)
		}
		if want[g][1], err = c.BackwardAllgather(in[g].gradFull); err != nil {
			t.Fatal(err)
		}
	}
	same := func(got, want []*tensor.Matrix) bool {
		for d := range want {
			for i, x := range want[d].Data {
				if math.Float32bits(got[d].Data[i]) != math.Float32bits(x) {
					return false
				}
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for g := range in {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				out, err := c.Allgather(in[g].local)
				if err != nil {
					t.Error(err)
					return
				}
				if !same(out, want[g][0]) {
					t.Errorf("goroutine %d round %d: forward differs from the serial answer", g, r)
					return
				}
				if out, err = c.BackwardAllgather(in[g].gradFull); err != nil {
					t.Error(err)
					return
				}
				if !same(out, want[g][1]) {
					t.Errorf("goroutine %d round %d: backward differs from the serial answer", g, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestClusterRetainsOnlyExactArenas is the memory ledger. After warm-up
// collectives in both directions at width 32 and then at width 8, the heap a
// cluster keeps between collectives is its programs' relay arenas, exact
// size, at both widths, plus the channel transports; nothing is sized by
// the transfers' payloads. A pool of send buffers (or of arenas rounded up
// to a power of two) fails it.
func TestClusterRetainsOnlyExactArenas(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	c, _, _ := allocCluster(t)
	widths := []int{32, 8}
	type inputs struct{ local, gradFull []*tensor.Matrix }
	in := make([]inputs, len(widths))
	for w, cols := range widths {
		in[w].local = make([]*tensor.Matrix, c.K)
		in[w].gradFull = make([]*tensor.Matrix, c.K)
		for d := 0; d < c.K; d++ {
			lg := c.Locals[d]
			in[w].local[d] = tensor.New(lg.NumLocal, cols).FillRandom(int64(d) + 1)
			in[w].gradFull[d] = tensor.New(lg.NumLocal+lg.NumRemote, cols).FillRandom(int64(d) + 50)
		}
	}
	var arenaBytes, chanBytes uint64
	for _, backward := range []bool{false, true} {
		prog, err := c.program(backward)
		if err != nil {
			t.Fatal(err)
		}
		for d := range prog.clients {
			for _, cols := range widths {
				arenaBytes += uint64(prog.clients[d].arenaRows * cols * 4)
			}
		}
		// One buffered channel per transfer: its header, its buffer
		// (counted at chanBuffer slots, an upper bound), and its slot in
		// the per-stage slices.
		for _, st := range prog.stages {
			chanBytes += uint64(len(st)) * (96 + chanBuffer*uint64(unsafe.Sizeof(Message{})) + 8)
		}
	}
	// Slack: the allocator's size classes (at most 1/8 over a request), the
	// channel transports doubled for the same rounding, and 16 KiB of fixed
	// per-program state (maps, slot headers, locks).
	slack := arenaBytes/8 + 2*chanBytes + 16<<10
	before := heapInUse()
	for w := range widths {
		if _, err := c.Allgather(in[w].local); err != nil {
			t.Fatal(err)
		}
		if _, err := c.BackwardAllgather(in[w].gradFull); err != nil {
			t.Fatal(err)
		}
	}
	after := heapInUse()
	runtime.KeepAlive(c)
	runtime.KeepAlive(in)
	retained := int64(after) - int64(before)
	t.Logf("retained %d B; exact arenas %d B; slack %d B (channels %d B)", retained, arenaBytes, slack, chanBytes)
	if retained > int64(arenaBytes+slack) {
		t.Fatalf("cluster retains %d B across collectives, budget %d B (exact arenas at widths %v: %d B, slack %d B)", retained, arenaBytes+slack, widths, arenaBytes, slack)
	}
}
