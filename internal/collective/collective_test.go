package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dgcl/internal/tensor"
)

func TestRingAllreduceSums(t *testing.T) {
	k, n := 4, 10
	bufs := make([]*tensor.Matrix, k)
	want := make([]float64, n)
	for w := 0; w < k; w++ {
		bufs[w] = tensor.New(1, n).FillRandom(int64(w))
		for i, v := range bufs[w].Data {
			want[i] += float64(v)
		}
	}
	if err := RingAllreduce(bufs); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < k; w++ {
		for i := range want {
			if math.Abs(float64(bufs[w].Data[i])-want[i]) > 1e-4 {
				t.Fatalf("worker %d elem %d: %v want %v", w, i, bufs[w].Data[i], want[i])
			}
		}
	}
}

func TestRingAllreduceEdgeCases(t *testing.T) {
	if err := RingAllreduce(nil); err == nil {
		t.Fatal("empty worker set must fail")
	}
	one := []*tensor.Matrix{tensor.New(1, 3).FillRandom(1)}
	orig := one[0].Clone()
	if err := RingAllreduce(one); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(one[0], orig) != 0 {
		t.Fatal("single worker must be identity")
	}
	bad := []*tensor.Matrix{tensor.New(1, 3), tensor.New(1, 4)}
	if err := RingAllreduce(bad); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}

// Property: allreduce result equals the naive sum for random worker counts
// and sizes, including sizes not divisible by k.
func TestPropertyRingAllreduce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(7)
		n := 1 + rng.Intn(40)
		bufs := make([]*tensor.Matrix, k)
		want := make([]float64, n)
		for w := 0; w < k; w++ {
			bufs[w] = tensor.New(1, n).FillRandom(seed + int64(w))
			for i, v := range bufs[w].Data {
				want[i] += float64(v)
			}
		}
		if err := RingAllreduce(bufs); err != nil {
			return false
		}
		for w := 0; w < k; w++ {
			for i := range want {
				if math.Abs(float64(bufs[w].Data[i])-want[i]) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFullAllgatherBytesOvershoot(t *testing.T) {
	// 4 parts of 100 vertices each at 4 bytes: collective allgather moves
	// 4*100*4*3 bytes.
	got := FullAllgatherBytes([]int{100, 100, 100, 100}, 4)
	if got != 4800 {
		t.Fatalf("got %d", got)
	}
}

// snapshotRingAllreduce is RingAllreduce as it was before the ring folded in
// place: every ring step copies each sent chunk into a fresh slice first,
// then delivers. Kept as the reference the in-place ring must match bit for
// bit.
func snapshotRingAllreduce(bufs []*tensor.Matrix) {
	k, n := len(bufs), len(bufs[0].Data)
	start := func(c int) int { return c * n / k }
	type msg struct {
		dst, chunk int
		data       []float32
	}
	for s := 0; s < k-1; s++ {
		msgs := make([]msg, 0, k)
		for w := 0; w < k; w++ {
			c := ((w-s)%k + k) % k
			lo, hi := start(c), start(c+1)
			data := make([]float32, hi-lo)
			copy(data, bufs[w].Data[lo:hi])
			msgs = append(msgs, msg{dst: (w + 1) % k, chunk: c, data: data})
		}
		for _, m := range msgs {
			lo := start(m.chunk)
			for i, v := range m.data {
				bufs[m.dst].Data[lo+i] += v
			}
		}
	}
	for s := 0; s < k-1; s++ {
		msgs := make([]msg, 0, k)
		for w := 0; w < k; w++ {
			c := ((w+1-s)%k + k) % k
			lo, hi := start(c), start(c+1)
			data := make([]float32, hi-lo)
			copy(data, bufs[w].Data[lo:hi])
			msgs = append(msgs, msg{dst: (w + 1) % k, chunk: c, data: data})
		}
		for _, m := range msgs {
			lo := start(m.chunk)
			copy(bufs[m.dst].Data[lo:lo+len(m.data)], m.data)
		}
	}
}

// TestRingAllreduceInPlaceMatchesSnapshotRing pins the in-place ring to the
// snapshot ring bit for bit over a random table: K 2-8, odd lengths (some
// shorter than K, so some chunks are empty), and values whose magnitudes
// span 1e-4 to 1e3, so every rounding the additions make shows.
func TestRingAllreduceInPlaceMatchesSnapshotRing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for tc := 0; tc < 300; tc++ {
		k := 2 + rng.Intn(7)
		n := 1 + 2*rng.Intn(150)
		got := make([]*tensor.Matrix, k)
		want := make([]*tensor.Matrix, k)
		for w := range got {
			got[w] = tensor.New(1, n)
			for i := range got[w].Data {
				mag := math.Pow(10, -4+7*rng.Float64())
				if rng.Intn(2) == 0 {
					mag = -mag
				}
				got[w].Data[i] = float32(mag)
			}
			want[w] = got[w].Clone()
		}
		if err := RingAllreduce(got); err != nil {
			t.Fatal(err)
		}
		snapshotRingAllreduce(want)
		for w := range got {
			for i := range got[w].Data {
				if math.Float32bits(got[w].Data[i]) != math.Float32bits(want[w].Data[i]) {
					t.Fatalf("case %d (k=%d n=%d) worker %d elem %d: in-place %v, snapshot ring %v", tc, k, n, w, i, got[w].Data[i], want[w].Data[i])
				}
			}
		}
	}
}

// TestRingAllreduceAllocatesNothing: folding in place, the ring allocates
// nothing per call (the snapshot ring made 126 allocations at K = 8).
func TestRingAllreduceAllocatesNothing(t *testing.T) {
	bufs := make([]*tensor.Matrix, 8)
	for w := range bufs {
		bufs[w] = tensor.New(1, 264).FillRandom(int64(w))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := RingAllreduce(bufs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RingAllreduce allocates %.0f objects per call at K = 8, want 0", allocs)
	}
}
