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
