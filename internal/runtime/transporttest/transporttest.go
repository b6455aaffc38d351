// Package transporttest is the conformance battery every runtime.Transport
// implementation must pass: delivery fidelity, per-key FIFO ordering, context
// cancellation and deadline behavior, fail-fast Recv after the remote
// endpoint closes, and buffer-ownership discipline on both sides of a
// transfer. The in-memory channel transport, the fault and retry
// decorators, and the wire transport all run the same table (see the
// conformance tests in the runtime and wire packages), so a new transport
// implementation starts by passing this battery. Production code must not
// import it.
package transporttest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dgcl/internal/core"
	"dgcl/internal/runtime"
	"dgcl/internal/tensor"
)

// Caps declares the optional behaviors of the transport under test.
type Caps struct {
	// Close, when non-nil, tears down the transport's remote endpoints;
	// after calling it a blocked or subsequent Recv must fail fast instead
	// of hanging. Nil means the transport has no close notion (in-memory
	// channels live for the collective) and the close cases are skipped.
	Close func()
}

// Factory builds a fresh transport instance for one stage layout. The
// battery calls it once per subtest, so per-instance state never leaks
// between cases.
type Factory func(t testing.TB, stages [][]core.Transfer) (runtime.Transport, Caps)

// stages is the battery's standard single-stage layout: four parallel
// transfers between four devices, each with its own TransferKey index.
func stages() [][]core.Transfer {
	return [][]core.Transfer{{
		{Src: 0, Dst: 1, Vertices: []int32{0, 1, 2}},
		{Src: 1, Dst: 0, Vertices: []int32{3, 4, 5}},
		{Src: 2, Dst: 3, Vertices: []int32{6, 7, 8}},
		{Src: 3, Dst: 2, Vertices: []int32{9, 10, 11}},
	}}
}

func key(i int) runtime.TransferKey { return runtime.TransferKey{Stage: 0, Index: i} }

// payload builds a 3×2 matrix whose cells encode (tag, position) so
// misdelivery and reordering are distinguishable from corruption.
func payload(tag int) *tensor.Matrix {
	m := tensor.New(3, 2)
	for i := range m.Data {
		m.Data[i] = float32(tag)*100 + float32(i)
	}
	return m
}

// send delivers one message, retrying retryable rejections (channel
// backpressure, injected faults) so the battery exercises slow-consumer
// paths without depending on any particular retry decorator.
func send(ctx context.Context, tp runtime.Transport, k runtime.TransferKey, tr core.Transfer, msg runtime.Message) error {
	for {
		err := tp.Send(ctx, k, tr, msg)
		if err == nil || !runtime.IsRetryable(err) {
			return err
		}
		select {
		case <-time.After(50 * time.Microsecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Run executes the full battery against the factory's transport.
func Run(t *testing.T, factory Factory) {
	st := stages()
	tr := st[0][0]

	t.Run("RoundTrip", func(t *testing.T) {
		tp, _ := factory(t, st)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		want := payload(1)
		msg := runtime.NewMessage(want)
		if !msg.Valid() {
			t.Fatal("freshly sealed message does not validate")
		}
		if err := send(ctx, tp, key(0), tr, msg); err != nil {
			t.Fatal(err)
		}
		got, err := tp.Recv(ctx, key(0), tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Checksum != msg.Checksum {
			t.Fatalf("checksum changed in transit: %#x -> %#x", msg.Checksum, got.Checksum)
		}
		if !got.Valid() {
			t.Fatal("received message fails its own seal")
		}
		if diff := tensor.MaxAbsDiff(got.Rows, want); diff != 0 {
			t.Fatalf("payload differs by %v; delivery must be bit-identical", diff)
		}
	})

	t.Run("PerKeyOrdering", func(t *testing.T) {
		tp, _ := factory(t, st)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		const n = 20
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if err := send(ctx, tp, key(0), tr, runtime.NewMessage(payload(i))); err != nil {
					errc <- fmt.Errorf("send %d: %w", i, err) //dgclvet:ignore goleaklite buffered channel (cap 1), single send per goroutine; cannot block
					return
				}
			}
			errc <- nil //dgclvet:ignore goleaklite buffered channel (cap 1), single send per goroutine; cannot block
		}()
		for i := 0; i < n; i++ {
			got, err := tp.Recv(ctx, key(0), tr)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if tag := int(got.Rows.Data[0]) / 100; tag != i {
				t.Fatalf("recv %d delivered message %d: per-key FIFO order violated", i, tag)
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ConcurrentKeys", func(t *testing.T) {
		tp, _ := factory(t, st)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		const n = 10
		var wg sync.WaitGroup
		errs := make([]error, len(st[0]))
		for ki := range st[0] {
			wg.Add(1)
			go func(ki int) {
				defer wg.Done()
				ktr := st[0][ki]
				for i := 0; i < n; i++ {
					tag := ki*1000 + i
					if err := send(ctx, tp, key(ki), ktr, runtime.NewMessage(payload(tag))); err != nil {
						errs[ki] = fmt.Errorf("key %d send %d: %w", ki, i, err)
						return
					}
					got, err := tp.Recv(ctx, key(ki), ktr)
					if err != nil {
						errs[ki] = fmt.Errorf("key %d recv %d: %w", ki, i, err)
						return
					}
					if gotTag := int(got.Rows.Data[0]) / 100; gotTag != tag {
						errs[ki] = fmt.Errorf("key %d recv %d delivered message %d: cross-key delivery", ki, i, gotTag)
						return
					}
				}
			}(ki)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("RecvContextCancellation", func(t *testing.T) {
		tp, _ := factory(t, st)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		done := make(chan error, 1)
		go func() {
			_, err := tp.Recv(ctx, key(0), tr)
			done <- err //dgclvet:ignore goleaklite buffered channel (cap 1), single send per goroutine; cannot block
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Recv with a canceled context returned a message from nowhere")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancellation surfaced as %v, want context.Canceled in the chain", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv ignored an already-canceled context")
		}
	})

	t.Run("RecvDeadline", func(t *testing.T) {
		tp, _ := factory(t, st)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := tp.Recv(ctx, key(0), tr)
		if err == nil {
			t.Fatal("Recv on an empty transport returned a message")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline surfaced as %v, want context.DeadlineExceeded in the chain", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("Recv took %v to honor a 50ms deadline", elapsed)
		}
	})

	t.Run("RecvAfterClose", func(t *testing.T) {
		tp, caps := factory(t, st)
		if caps.Close == nil {
			t.Skip("transport has no close notion")
		}
		caps.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		_, err := tp.Recv(ctx, key(0), tr)
		if err == nil {
			t.Fatal("Recv after close returned a message")
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Recv after close timed out instead of failing fast: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("Recv took %v to notice the closed endpoint", elapsed)
		}
	})

	t.Run("BlockedRecvUnblocksOnClose", func(t *testing.T) {
		tp, caps := factory(t, st)
		if caps.Close == nil {
			t.Skip("transport has no close notion")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done := make(chan error, 1)
		go func() {
			_, err := tp.Recv(ctx, key(0), tr)
			done <- err //dgclvet:ignore goleaklite buffered channel (cap 1), single send per goroutine; cannot block
		}()
		time.Sleep(20 * time.Millisecond) // let the Recv block
		caps.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Recv blocked across a close returned a message")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("close left a blocked Recv hanging")
		}
	})

	t.Run("ReceivedBufferOwnership", func(t *testing.T) {
		tp, _ := factory(t, st)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := send(ctx, tp, key(0), tr, runtime.NewMessage(payload(1))); err != nil {
			t.Fatal(err)
		}
		first, err := tp.Recv(ctx, key(0), tr)
		if err != nil {
			t.Fatal(err)
		}
		// The buffer is ours now: deface it, run another transfer, and
		// confirm neither message is disturbed — the transport may not
		// retain or reuse a delivered buffer.
		for i := range first.Rows.Data {
			first.Rows.Data[i] = -999
		}
		want := payload(2)
		if err := send(ctx, tp, key(0), tr, runtime.NewMessage(want)); err != nil {
			t.Fatal(err)
		}
		second, err := tp.Recv(ctx, key(0), tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff := tensor.MaxAbsDiff(second.Rows, want); diff != 0 {
			t.Fatalf("second payload differs by %v after the first buffer was defaced", diff)
		}
		for i, x := range first.Rows.Data {
			if x != -999 {
				t.Fatalf("transport wrote into a delivered buffer at %d: %v", i, x)
			}
		}
	})

	t.Run("SentBufferAliasing", func(t *testing.T) {
		tp, _ := factory(t, st)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m := payload(3)
		want := payload(3)
		if err := send(ctx, tp, key(0), tr, runtime.NewMessage(m)); err != nil {
			t.Fatal(err)
		}
		if _, pooled := tp.(runtime.PooledTransport); pooled {
			// A pooled transport serialized before Send returned: the
			// sender is free to reuse its buffer immediately.
			for i := range m.Data {
				m.Data[i] = -1
			}
		}
		got, err := tp.Recv(ctx, key(0), tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff := tensor.MaxAbsDiff(got.Rows, want); diff != 0 {
			t.Fatalf("payload differs by %v after the sent buffer was reused", diff)
		}
	})
}
