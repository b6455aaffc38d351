package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dgcl/internal/testutil"
)

func TestMatMulKnown(t *testing.T) {
	a := FromData(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromData(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("matmul[%d]=%v want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTransposedMatMulsAgreeWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 4)
	b := New(5, 3)
	for i := range a.Data {
		a.Data[i] = rng.Float32()
	}
	for i := range b.Data {
		b.Data[i] = rng.Float32()
	}
	// aᵀ b by explicit transpose.
	at := New(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := MatMulATB(a, b)
	if MaxAbsDiff(want, got) > 1e-5 {
		t.Fatalf("ATB diverges: %v", MaxAbsDiff(want, got))
	}
	// a bᵀ: a is 5x4, use c 6x4 for b.
	c := New(6, 4)
	for i := range c.Data {
		c.Data[i] = rng.Float32()
	}
	ct := New(4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	want = MatMul(a, ct)
	got = MatMulABT(a, c)
	if MaxAbsDiff(want, got) > 1e-5 {
		t.Fatalf("ABT diverges: %v", MaxAbsDiff(want, got))
	}
}

func TestReLUAndGrad(t *testing.T) {
	pre := FromData(1, 4, []float32{-1, 0, 2, -3})
	out := ReLU(pre)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 || out.Data[3] != 0 {
		t.Fatalf("relu=%v", out.Data)
	}
	grad := FromData(1, 4, []float32{10, 20, 30, 40})
	g := ReLUGrad(pre, grad)
	if g.Data[0] != 0 || g.Data[2] != 30 || g.Data[3] != 0 {
		t.Fatalf("relugrad=%v", g.Data)
	}
}

func TestBias(t *testing.T) {
	a := FromData(2, 2, []float32{1, 2, 3, 4})
	bias := FromData(1, 2, []float32{10, 20})
	AddBiasInPlace(a, bias)
	if a.At(0, 0) != 11 || a.At(1, 1) != 24 {
		t.Fatalf("bias add: %v", a.Data)
	}
	g := BiasGrad(a)
	if g.Data[0] != 11+13 || g.Data[1] != 22+24 {
		t.Fatalf("bias grad: %v", g.Data)
	}
}

func TestGatherScatter(t *testing.T) {
	a := FromData(3, 2, []float32{1, 2, 3, 4, 5, 6})
	g := GatherRows(a, []int32{2, 0})
	if g.At(0, 0) != 5 || g.At(1, 1) != 2 {
		t.Fatalf("gather: %v", g.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromData(1, 2, []float32{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("clone aliases data")
	}
}

func TestXavierDeterministicAndBounded(t *testing.T) {
	a := New(64, 32).Xavier(7)
	b := New(64, 32).Xavier(7)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("xavier not deterministic")
	}
	limit := math.Sqrt(6.0 / 96.0)
	for _, v := range a.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("xavier value %v exceeds limit %v", v, limit)
		}
	}
}

func TestScaleZeroFrobenius(t *testing.T) {
	a := FromData(1, 3, []float32{3, 4, 0})
	if f := Frobenius(a); math.Abs(f-5) > 1e-9 {
		t.Fatalf("frobenius=%v", f)
	}
	ScaleInPlace(a, 2)
	if a.Data[1] != 8 {
		t.Fatal("scale failed")
	}
	a.Zero()
	if Frobenius(a) != 0 {
		t.Fatal("zero failed")
	}
}

// Property: (A B) C == A (B C) within float tolerance.
func TestPropertyMatMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m, k, l := 2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(5)
		a, b, c := New(n, m), New(m, k), New(k, l)
		for i := range a.Data {
			a.Data[i] = rng.Float32()
		}
		for i := range b.Data {
			b.Data[i] = rng.Float32()
		}
		for i := range c.Data {
			c.Data[i] = rng.Float32()
		}
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return MaxAbsDiff(left, right) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every gathered row is an exact copy of the indexed source row.
func TestPropertyGatherRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 3+rng.Intn(10), 1+rng.Intn(6)
		a := New(n, c)
		for i := range a.Data {
			a.Data[i] = rng.Float32()
		}
		idx := make([]int32, 1+rng.Intn(2*n))
		for i := range idx {
			idx[i] = int32(rng.Intn(n))
		}
		g := GatherRows(a, idx)
		for i, r := range idx {
			for j := 0; j < c; j++ {
				if g.At(i, j) != a.At(int(r), j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// serialMatMul / serialATB / serialABT are naive reference kernels with the
// canonical serial accumulation order (i outermost, ascending k, ascending
// j). The parallel kernels must match them bit for bit at every worker
// count: each output row is written by exactly one worker using exactly this
// order.
func serialMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func serialATB(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[k*out.Cols+j] += av * b.At(i, j)
			}
		}
	}
	return out
}

func serialABT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			out.Set(i, j, Dot(a.Row(i), b.Row(j)))
		}
	}
	return out
}

// bitsEqual compares two matrices bit for bit (stricter than MaxAbsDiff == 0,
// which treats +0 and -0 as equal).
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestParallelKernelsBitIdentical runs all three matmul kernels across odd
// shapes (single rows/cols, widths and depths off the kernels' block sizes,
// and sparse inputs exercising the removed zero-skip), asserting
// bit-identical outputs against the naive serial references.
func TestParallelKernelsBitIdentical(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {7, 3, 1}, {2, 9, 4}, {13, 6, 5}, {64, 17, 9}, {5, 1, 3},
		// MatMulABT runs on the row kernel over a transposed b: k and n off
		// the multiples of four and rows narrower than one vector.
		{4, 10, 2}, {9, 7, 3}, {3, 4, 2}, {6, 18, 19}, {5, 33, 6}, {2, 3, 13},
		// n either side of every column block of the row sweep (32, 8, 4, 1).
		{3, 5, 31}, {4, 9, 32}, {5, 6, 33}, {2, 7, 36}, {3, 4, 65}, {2, 3, 130},
	}
	for _, sparse := range []bool{false, true} {
		for si, s := range shapes {
			a := New(s.m, s.k).FillRandom(int64(si) + 1)
			bm := New(s.k, s.n).FillRandom(int64(si) + 100)
			atb := New(s.m, s.n).FillRandom(int64(si) + 200) // b for ATB (same rows as a)
			abt := New(s.n, s.k).FillRandom(int64(si) + 300) // b for ABT (same cols as a)
			if sparse {
				for i := range a.Data {
					if a.Data[i] < 0 {
						a.Data[i] = 0
					}
				}
			}
			if got := MatMul(a, bm); !bitsEqual(got, serialMatMul(a, bm)) {
				t.Fatalf("MatMul %dx%dx%d diverges (sparse=%v)", s.m, s.k, s.n, sparse)
			}
			if got := MatMulATB(a, atb); !bitsEqual(got, serialATB(a, atb)) {
				t.Fatalf("MatMulATB %dx%dx%d diverges (sparse=%v)", s.m, s.k, s.n, sparse)
			}
			if got := MatMulABT(a, abt); !bitsEqual(got, serialABT(a, abt)) {
				t.Fatalf("MatMulABT %dx%dx%d diverges (sparse=%v)", s.m, s.k, s.n, sparse)
			}
		}
	}
}

// TestMatMulABTAllocatesLikeMatMul: the transposed copy MatMulABT computes
// over, and the column scratch of MatMulATB, must not show up as allocations
// of their own (an epoch calls each once per rank per layer, and
// runtime.allocs_per_epoch is a tracked count), and MatMul allocates nothing
// beyond its result's header and floats.
func TestMatMulABTAllocatesLikeMatMul(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a := New(50, 16).FillRandom(1)
	w, wt := New(32, 16).FillRandom(2), New(16, 32).FillRandom(3)
	abt := testing.AllocsPerRun(50, func() { MatMulABT(a, w) })
	mm := testing.AllocsPerRun(50, func() { MatMul(a, wt) })
	if mm != 2 {
		t.Fatalf("MatMul allocates %v times per call, want 2 (the result)", mm)
	}
	if abt > mm {
		t.Fatalf("MatMulABT allocates %v times per call, MatMul %v", abt, mm)
	}
	g := New(50, 32).FillRandom(4)
	if atb := testing.AllocsPerRun(50, func() { MatMulATB(a, g) }); atb != 2 {
		t.Fatalf("MatMulATB allocates %v times per call, want 2 (the result)", atb)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	a := New(128, 128).Xavier(1)
	c := New(128, 128).Xavier(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}

// TestFusedMatMulsBitIdentical holds the buffer-writing matmuls to the
// unfused, allocating passes they replaced, over random shapes (widths
// either side of every column block) with random-bit and table operands, each
// into an output full of NaN that they must overwrite: MatMulBiasReLUInto
// to MatMul, AddBiasInPlace and ReLU; MatMulSumBiasReLUInto to two MatMuls
// added, then the bias and ReLU; MatMulInto, MatMulATBInto and
// MatMulABTInto to MatMul, MatMulATB and MatMulABT; SumRowsInto to
// BiasGrad.
func TestFusedMatMulsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nan := float32(math.NaN())
	junk := func(rows, cols int) *Matrix {
		m := New(rows, cols)
		for i := range m.Data {
			m.Data[i] = nan
		}
		return m
	}
	for c := 0; c < 300; c++ {
		m, k, n := 1+rng.Intn(9), rng.Intn(12), 1+rng.Intn(70)
		edge := c%2 == 1
		mat := func(rows, cols int) *Matrix { return FromData(rows, cols, fill(rng, rows*cols, edge)) }
		a, w, c2, v, bias := mat(m, k), mat(k, n), mat(m, k), mat(k, n), mat(1, n)

		pre := MatMul(a, w)
		AddBiasInPlace(pre, bias)
		got := junk(m, n)
		MatMulBiasReLUInto(got, a, w, bias)
		if want := ReLU(pre); !bitsEqual(got, want) {
			t.Fatalf("case %d MatMulBiasReLUInto %dx%dx%d: %v, unfused %v", c, m, k, n, got.Data, want.Data)
		}

		pre = MatMul(a, w)
		AddInPlace(pre, MatMul(c2, v))
		AddBiasInPlace(pre, bias)
		row := make([]float32, n)
		MatMulSumBiasReLUInto(got, a, w, c2, v, bias, row)
		if want := ReLU(pre); !bitsEqual(got, want) {
			t.Fatalf("case %d MatMulSumBiasReLUInto %dx%dx%d: %v, unfused %v", c, m, k, n, got.Data, want.Data)
		}

		// The plain products may carry NaN, whose payload is not pinned.
		same := func(what string, got, want *Matrix) {
			t.Helper()
			if i, ok := sameBits(got.Data, want.Data); !ok || got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("case %d %s %dx%dx%d: element %d is %v, want %v", c, what, m, k, n, i, got.Data[i], want.Data[i])
			}
		}
		mm := junk(m, n)
		MatMulInto(mm, a, w)
		same("MatMulInto", mm, serialMatMul(a, w))
		g := mat(m, n)
		atb := junk(k, n)
		MatMulATBInto(atb, a, g, make([]float32, m))
		same("MatMulATBInto", atb, serialATB(a, g))
		abt := junk(m, n)
		wt := mat(n, k)
		MatMulABTInto(abt, a, wt, make([]float32, n*k))
		same("MatMulABTInto", abt, serialABT(a, wt))
		sum := make([]float32, n)
		for i := range sum {
			sum[i] = nan
		}
		SumRowsInto(sum, g)
		same("SumRowsInto", FromData(1, n, sum), BiasGrad(g))
	}
}
