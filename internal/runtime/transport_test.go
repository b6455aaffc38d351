package runtime

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"dgcl/internal/comm"
	"dgcl/internal/core"
	"dgcl/internal/graph"
	"dgcl/internal/tensor"
)

var testTransfer = core.Transfer{Src: 0, Dst: 1, Vertices: []int32{3, 5}}

// relayFixture is the 4-GPU relay chain of TestMultiHopForwardingDeliversData:
// GPU0 owns v0, needed by GPUs 2 and 3, forwarded 0->1->2->3.
func relayFixture(t *testing.T) (*comm.Relation, []*comm.LocalGraph, *core.Plan) {
	t.Helper()
	rel := &comm.Relation{
		K:      4,
		Owner:  []int32{0, 1, 2, 3},
		Local:  [][]int32{{0}, {1}, {2}, {3}},
		Remote: [][]int32{nil, nil, {0}, {0}},
		Send:   make([][][]int32, 4),
	}
	for i := range rel.Send {
		rel.Send[i] = make([][]int32, 4)
	}
	rel.Send[0][2] = []int32{0}
	rel.Send[0][3] = []int32{0}
	plan := core.NewPlan(4, 4, "relay")
	plan.Stages = [][]core.Transfer{
		{{Src: 0, Dst: 1, Vertices: []int32{0}}},
		{{Src: 1, Dst: 2, Vertices: []int32{0}}},
		{{Src: 2, Dst: 3, Vertices: []int32{0}}},
	}
	g := graph.MustFromEdges(4, []graph.Edge{{Src: 2, Dst: 0}, {Src: 3, Dst: 0}}, false)
	return rel, comm.BuildLocalGraphs(g, rel), plan
}

func testStages() [][]core.Transfer { return [][]core.Transfer{{testTransfer}} }

func payload(vals ...float32) Message {
	return NewMessage(tensor.FromData(1, len(vals), vals))
}

func TestChanTransportRoundTrip(t *testing.T) {
	tp := NewChanTransport(testStages())
	key := TransferKey{0, 0}
	want := payload(1, 2, 3)
	if err := tp.Send(context.Background(), key, testTransfer, want); err != nil {
		t.Fatal(err)
	}
	got, err := tp.Recv(context.Background(), key, testTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows.At(0, 1) != 2 || !got.Valid() {
		t.Fatalf("payload damaged in transit: %+v", got)
	}
}

func TestChanTransportRejectsBadKey(t *testing.T) {
	tp := NewChanTransport(testStages())
	if err := tp.Send(context.Background(), TransferKey{5, 0}, testTransfer, payload(1)); err == nil {
		t.Fatal("expected bad-key error")
	}
	if _, err := tp.Recv(context.Background(), TransferKey{0, 9}, testTransfer); err == nil {
		t.Fatal("expected bad-key error")
	}
}

func TestChanTransportBackpressure(t *testing.T) {
	tp := NewChanTransport(testStages())
	key := TransferKey{0, 0}
	for i := 0; i < chanBuffer; i++ {
		if err := tp.Send(context.Background(), key, testTransfer, payload(float32(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := tp.Send(context.Background(), key, testTransfer, payload(99)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow send = %v, want ErrBackpressure", err)
	}
}

func TestChanTransportRecvHonorsContext(t *testing.T) {
	tp := NewChanTransport(testStages())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tp.Recv(ctx, TransferKey{0, 0}, testTransfer)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("recv = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("recv did not respect the deadline")
	}
}

func TestMessageChecksumDetectsCorruption(t *testing.T) {
	msg := payload(1, 2, 3)
	if !msg.Valid() {
		t.Fatal("fresh message must be valid")
	}
	msg.Rows.Data[1] = 42
	if msg.Valid() {
		t.Fatal("mutated payload must fail its checksum")
	}
}

func TestFaultTransportDrop(t *testing.T) {
	tp := NewFaultTransport(NewChanTransport(testStages()),
		FaultConfig{Seed: 1, Default: FaultRates{Drop: 1}, Stats: &FaultStats{}})
	err := tp.Send(context.Background(), TransferKey{0, 0}, testTransfer, payload(1))
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("send = %v, want ErrDropped", err)
	}
}

func TestFaultTransportCorruptIsDetected(t *testing.T) {
	stats := &FaultStats{}
	tp := NewFaultTransport(NewChanTransport(testStages()),
		FaultConfig{Seed: 1, Default: FaultRates{Corrupt: 1}, Stats: stats})
	key := TransferKey{0, 0}
	orig := payload(7, 8)
	if err := tp.Send(context.Background(), key, testTransfer, orig); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("send = %v, want ErrCorrupt (sender NACK)", err)
	}
	// The original payload must be untouched (it will be retransmitted).
	if !orig.Valid() {
		t.Fatal("corruption mutated the sender's buffer")
	}
	if _, err := tp.Recv(context.Background(), key, testTransfer); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recv = %v, want ErrCorrupt (checksum mismatch)", err)
	}
	if stats.Corrupts.Load() != 1 {
		t.Fatalf("corrupts = %d, want 1", stats.Corrupts.Load())
	}
}

// TestFaultTransportCorruptsInPlaceMessage sends an in-place message (the
// sender's own rows) through the fault decorator: it seals the rows itself
// and corrupts a copy read through Message.Row, so the delivered copy fails
// its checksum, the sender is NACKed, and the sender's rows are unchanged.
func TestFaultTransportCorruptsInPlaceMessage(t *testing.T) {
	sr := &slotRows{own: []float32{1, 2, 3, 4, 5, 6}, arena: []float32{-7, 8.5, 9}, cols: 3}
	own, arena := slices.Clone(sr.own), slices.Clone(sr.arena)
	base := NewChanTransport(testStages())
	tp := NewFaultTransport(base, FaultConfig{Seed: 1, Default: FaultRates{Corrupt: 1}})
	key := TransferKey{0, 0}
	msg := Message{from: sr, slots: []int32{1, -1}}
	if err := tp.Send(context.Background(), key, testTransfer, msg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("send = %v, want ErrCorrupt (sender NACK)", err)
	}
	got, err := base.Recv(context.Background(), key, testTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid() {
		t.Fatal("the corrupt copy of an in-place message passes its checksum")
	}
	bits := func(fs []float32) []uint32 {
		out := make([]uint32, len(fs))
		for i, f := range fs {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	if !slices.Equal(bits(sr.own), bits(own)) || !slices.Equal(bits(sr.arena), bits(arena)) {
		t.Fatalf("corruption wrote the sender's rows: own %v arena %v, want %v %v", sr.own, sr.arena, own, arena)
	}
}

func TestFaultTransportDuplicateIsDeliveredTwice(t *testing.T) {
	tp := NewFaultTransport(NewChanTransport(testStages()),
		FaultConfig{Seed: 1, Default: FaultRates{Duplicate: 1}})
	key := TransferKey{0, 0}
	if err := tp.Send(context.Background(), key, testTransfer, payload(5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		msg, err := tp.Recv(context.Background(), key, testTransfer)
		if err != nil || msg.Rows.At(0, 0) != 5 {
			t.Fatalf("copy %d: %v %v", i, msg, err)
		}
	}
}

func TestFaultTransportRatesApplyToEveryLink(t *testing.T) {
	stages := [][]core.Transfer{{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}}
	// Zero rates pass every send through untouched.
	clean := NewFaultTransport(NewChanTransport(stages), FaultConfig{Seed: 1})
	lossy := NewFaultTransport(NewChanTransport(stages), FaultConfig{Seed: 1, Default: FaultRates{Drop: 1}})
	for i, tr := range stages[0] {
		key := TransferKey{0, i}
		if err := clean.Send(context.Background(), key, tr, payload(1)); err != nil {
			t.Fatalf("zero-rate send %d->%d = %v, want nil", tr.Src, tr.Dst, err)
		}
		if err := lossy.Send(context.Background(), key, tr, payload(1)); !errors.Is(err, ErrDropped) {
			t.Fatalf("drop-rate send %d->%d = %v, want ErrDropped", tr.Src, tr.Dst, err)
		}
	}
}

// flakyTransport fails the first n sends with errs, then delegates.
type flakyTransport struct {
	Transport
	failures int
	err      error
}

func (f *flakyTransport) Send(ctx context.Context, key TransferKey, tr core.Transfer, msg Message) error {
	if f.failures > 0 {
		f.failures--
		return f.err
	}
	return f.Transport.Send(ctx, key, tr, msg)
}

func TestRetryTransportRecoversFromTransientDrops(t *testing.T) {
	stats := NewCommStats(2)
	inner := &flakyTransport{Transport: NewChanTransport(testStages()), failures: 3, err: ErrDropped}
	tp := NewRetryTransport(inner, RetryPolicy{MaxRetries: 5, BaseBackoff: time.Microsecond}, stats)
	key := TransferKey{0, 0}
	if err := tp.Send(context.Background(), key, testTransfer, payload(9)); err != nil {
		t.Fatal(err)
	}
	msg, err := tp.Recv(context.Background(), key, testTransfer)
	if err != nil || msg.Rows.At(0, 0) != 9 {
		t.Fatalf("recv after retries: %v %v", msg, err)
	}
	if got := stats.Retries(0); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
}

func TestRetryTransportExhaustsBudget(t *testing.T) {
	inner := &flakyTransport{Transport: NewChanTransport(testStages()), failures: 100, err: ErrDropped}
	tp := NewRetryTransport(inner, RetryPolicy{MaxRetries: 2, BaseBackoff: time.Microsecond}, nil)
	err := tp.Send(context.Background(), TransferKey{0, 0}, testTransfer, payload(1))
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("send = %v, want *TransportError", err)
	}
	if te.Op != "send" || te.Attempts != 3 || !errors.Is(te, ErrDropped) {
		t.Fatalf("unexpected TransportError: %+v", te)
	}
}

// silentProvider's transport accepts every send and delivers nothing: peers
// that stopped answering without closing anything.
type silentProvider struct{}

func (silentProvider) CollectiveTransport([][]core.Transfer, []int) Transport {
	return silentTransport{}
}

type silentTransport struct{}

func (silentTransport) Send(context.Context, TransferKey, core.Transfer, Message) error { return nil }

func (silentTransport) Recv(ctx context.Context, _ TransferKey, _ core.Transfer) (Message, error) {
	<-ctx.Done()
	return Message{}, ctx.Err()
}

// TestHealthConvictsSilentSenderWithoutRetry runs a collective whose sends
// are all silently lost, with no retry policy: the collective's deadline
// alone ends each receive, and the stage loop reports it as a recv
// *TransportError naming the sender, charges the receiver one timeout, and
// so gives the health tracker the strike that convicts the silent sender.
func TestHealthConvictsSilentSenderWithoutRetry(t *testing.T) {
	c, local, _ := chaosCluster(t)
	prog, err := c.program(false)
	if err != nil {
		t.Fatal(err)
	}
	c.Provider = silentProvider{}
	const deadline = 50 * time.Millisecond
	c.Timeout = deadline
	c.Stats = NewCommStats(c.K)
	c.Health = NewHealthTracker(1, CrashConfig{})

	start := time.Now()
	_, err = c.Allgather(local)
	elapsed := time.Since(start)
	var ce *CollectiveError
	if !errors.As(err, &ce) {
		t.Fatalf("allgather = %v, want *CollectiveError", err)
	}
	if elapsed < deadline || elapsed > time.Second {
		t.Fatalf("receives ended after %v, want near the %v deadline", elapsed, deadline)
	}
	var senders []int
	for d := 0; d < c.K; d++ {
		// A client blocks on the first receive of its program: every send
		// before it was accepted.
		sender := -1
		for _, cs := range prog.clients[d].stages {
			if len(cs.recvs) > 0 {
				sender = cs.recvs[0].tr.Src
				break
			}
		}
		if sender < 0 {
			continue
		}
		var te *TransportError
		if !errors.As(ce.PerGPU[d], &te) || te.Op != "recv" || te.Src != sender || te.Dst != d ||
			!errors.Is(te, context.DeadlineExceeded) {
			t.Fatalf("GPU %d: %v, want a recv *TransportError from GPU %d ended by the deadline", d, ce.PerGPU[d], sender)
		}
		if got := c.Stats.Timeouts(d); got != 1 {
			t.Fatalf("GPU %d charged %d timeouts, want 1", d, got)
		}
		if !slices.Contains(senders, sender) {
			senders = append(senders, sender)
		}
	}
	if len(senders) == 0 {
		t.Fatal("no client receives anything; the test exercised nothing")
	}
	slices.Sort(senders)
	if len(ce.Down) == 0 || !slices.Equal(ce.Down, senders) {
		t.Fatalf("down verdicts %v, want the silent senders %v", ce.Down, senders)
	}
}

func TestRetryTransportDiscardsCorruptCopies(t *testing.T) {
	// A corrupt copy followed by a clean retransmission: Recv must skip the
	// damaged copy and return the good one.
	base := NewChanTransport(testStages())
	key := TransferKey{0, 0}
	good := payload(11)
	bad := corruptCopy(good)
	if err := base.Send(context.Background(), key, testTransfer, bad); err != nil {
		t.Fatal(err)
	}
	if err := base.Send(context.Background(), key, testTransfer, good); err != nil {
		t.Fatal(err)
	}
	// Fault layer with zero rates still verifies checksums on Recv.
	tp := NewRetryTransport(NewFaultTransport(base, FaultConfig{}), RetryPolicy{}, nil)
	msg, err := tp.Recv(context.Background(), key, testTransfer)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Rows.At(0, 0) != 11 {
		t.Fatalf("got %v, want the clean retransmission", msg.Rows.At(0, 0))
	}
}

func TestCommStatsCountsBackwardCollectives(t *testing.T) {
	// With the counters behind the transport, backward allgathers are
	// accounted too (they previously bypassed CommStats entirely).
	rel, locals, plan := relayFixture(t)
	c, err := NewCluster(rel, locals, plan)
	if err != nil {
		t.Fatal(err)
	}
	c.Stats = NewCommStats(4)
	gradFull := []*tensor.Matrix{
		tensor.FromData(1, 1, []float32{0}),
		tensor.FromData(1, 1, []float32{0}),
		tensor.FromData(2, 1, []float32{0, 5}),
		tensor.FromData(2, 1, []float32{0, 7}),
	}
	if _, err := c.BackwardAllgather(gradFull); err != nil {
		t.Fatal(err)
	}
	if c.Stats.TotalBytes() == 0 {
		t.Fatal("backward transfers not accounted")
	}
	var recvMsgs int64
	for d := 0; d < 4; d++ {
		_, m := c.Stats.Received(d)
		recvMsgs += m
	}
	if recvMsgs != 3 {
		t.Fatalf("backward recv msgs = %d, want 3 (one per relay hop)", recvMsgs)
	}
}

func TestBackwardAllgatherValidatesInputs(t *testing.T) {
	rel, locals, plan := relayFixture(t)
	c, err := NewCluster(rel, locals, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Nil entry: used to panic dereferencing gradFull[0].Cols.
	if _, err := c.BackwardAllgather(make([]*tensor.Matrix, 4)); err == nil {
		t.Fatal("expected nil-input error")
	}
	// Inconsistent feature dims across GPUs.
	bad := []*tensor.Matrix{
		tensor.New(1, 1), tensor.New(1, 2), tensor.New(2, 1), tensor.New(2, 1),
	}
	if _, err := c.BackwardAllgather(bad); err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
	// Wrong row count for a GPU's local graph.
	bad2 := []*tensor.Matrix{
		tensor.New(1, 1), tensor.New(1, 1), tensor.New(5, 1), tensor.New(2, 1),
	}
	if _, err := c.BackwardAllgather(bad2); err == nil {
		t.Fatal("expected row-count error")
	}
	// Allgather gets the same nil protection.
	if _, err := c.Allgather(make([]*tensor.Matrix, 4)); err == nil {
		t.Fatal("expected nil-input error on forward")
	}
}
