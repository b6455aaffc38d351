package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Kernel-vs-reference battery for the three row primitives. Axpy, AddTo and
// Axpy4 are whatever the build selected (the SSE2 assembly on amd64, the
// portable loops elsewhere and under -race); axpyGo, addToGo and axpy4Go are
// the portable loops themselves, always compiled, and are the reference:
// every result must carry the same bits.

// edgeValues is the fixed operand table: both zeros, both infinities, the
// smallest and largest denormals, the smallest normal, MaxFloat32, values
// whose products overflow or underflow, and pairs that cancel exactly.
var edgeValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest denormals
	math.Float32frombits(0x00800000), // smallest normal
	math.MaxFloat32, -math.MaxFloat32,
	1, -1, 0.5, -0.5, 3, -3, 1e-30, -1e-30, 1e30, -1e30,
	1 + 1.0/(1<<23), -(1 + 1.0/(1<<23)), // 1 + ulp: products round
	16777216, -16777215, // 2^24 and a neighbour: sums round
}

// fill draws n operands: random bit patterns (so NaNs, infinities and
// denormals all occur) when edge is false, a stride-walk of edgeValues when
// true, so that over the lengths and strides the table's pairs all meet.
func fill(rng *rand.Rand, n int, edge bool) []float32 {
	xs := make([]float32, n)
	if edge {
		at, stride := rng.Intn(len(edgeValues)), 1+rng.Intn(len(edgeValues)-1)
		for i := range xs {
			xs[i] = edgeValues[at%len(edgeValues)]
			at += stride
		}
		return xs
	}
	for i := range xs {
		xs[i] = math.Float32frombits(rng.Uint32())
	}
	return xs
}

// sameBits reports whether got matches want bit for bit. A NaN must be a NaN
// on both sides; its payload is not pinned, because which operand of a
// commutative multiply or add the compiler puts first decides whose payload
// survives, and the language does not say.
func sameBits(got, want []float32) (int, bool) {
	for i := range want {
		g, w := got[i], want[i]
		if w != w {
			if g == g {
				return i, false
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i, false
		}
	}
	return 0, true
}

// forEachRowCase runs fn over every length 0-67 (every vector-loop trip
// count and tail the kernels have) at sub-slice start offsets 0-3 (so loads
// and stores are 4-, 8- and 12-byte misaligned as well as aligned), with
// random and with table operands. buf(n) returns a fresh n-element operand
// at the case's offset inside a larger backing array.
func forEachRowCase(t *testing.T, fn func(n int, buf func() []float32, scalar func() float32)) {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, edge := range []bool{false, true} {
				buf := func() []float32 { return fill(rng, off+n+3, edge)[off : off+n] }
				scalar := func() float32 { return fill(rng, 1, edge)[0] }
				for rep := 0; rep < 4; rep++ {
					fn(n, buf, scalar)
				}
			}
		}
	}
}

func TestAxpyBitIdenticalToPortable(t *testing.T) {
	forEachRowCase(t, func(n int, buf func() []float32, scalar func() float32) {
		a, x, y := scalar(), buf(), buf()
		want := append([]float32(nil), y...)
		axpyGo(a, x, want)
		Axpy(a, x, y)
		if i, ok := sameBits(y, want); !ok {
			t.Fatalf("Axpy n=%d: y[%d] = %x, portable loop %x (a=%x x=%x)", n, i,
				math.Float32bits(y[i]), math.Float32bits(want[i]), math.Float32bits(a), math.Float32bits(x[i]))
		}
	})
}

func TestAddToBitIdenticalToPortable(t *testing.T) {
	forEachRowCase(t, func(n int, buf func() []float32, _ func() float32) {
		x, y := buf(), buf()
		want := append([]float32(nil), y...)
		addToGo(want, x)
		AddTo(y, x)
		if i, ok := sameBits(y, want); !ok {
			t.Fatalf("AddTo n=%d: y[%d] = %x, portable loop %x (x=%x)", n, i,
				math.Float32bits(y[i]), math.Float32bits(want[i]), math.Float32bits(x[i]))
		}
	})
}

func TestAxpy4BitIdenticalToPortable(t *testing.T) {
	forEachRowCase(t, func(n int, buf func() []float32, scalar func() float32) {
		a0, a1, a2, a3 := scalar(), scalar(), scalar(), scalar()
		x0, x1, x2, x3, y := buf(), buf(), buf(), buf(), buf()
		want := append([]float32(nil), y...)
		axpy4Go(a0, a1, a2, a3, x0, x1, x2, x3, want)
		Axpy4(a0, a1, a2, a3, x0, x1, x2, x3, y)
		if i, ok := sameBits(y, want); !ok {
			t.Fatalf("Axpy4 n=%d: y[%d] = %x, portable loop %x", n, i,
				math.Float32bits(y[i]), math.Float32bits(want[i]))
		}
	})
}

// TestAxpy4BitIdenticalToFourAxpys pins the order the four terms land in:
// one Axpy4 is four successive Axpy calls, which is what lets the matmuls
// and the aggregator block by four without moving a bit. The same x row may
// appear more than once (duplicate neighbours).
func TestAxpy4BitIdenticalToFourAxpys(t *testing.T) {
	forEachRowCase(t, func(n int, buf func() []float32, scalar func() float32) {
		a0, a1, a2, a3 := scalar(), scalar(), scalar(), scalar()
		x0, x2, y := buf(), buf(), buf()
		want := append([]float32(nil), y...)
		for _, term := range []struct {
			a float32
			x []float32
		}{{a0, x0}, {a1, x0}, {a2, x2}, {a3, x2}} {
			axpyGo(term.a, term.x, want)
		}
		Axpy4(a0, a1, a2, a3, x0, x0, x2, x2, y)
		if i, ok := sameBits(y, want); !ok {
			t.Fatalf("Axpy4 n=%d: y[%d] = %x, four Axpys %x", n, i,
				math.Float32bits(y[i]), math.Float32bits(want[i]))
		}
	})
}

// TestRowKernelsIdenticalSlices: x and y may be the same slice (each lane
// reads its own element before writing it); only a partial overlap is
// excluded by the precondition.
func TestRowKernelsIdenticalSlices(t *testing.T) {
	forEachRowCase(t, func(n int, buf func() []float32, scalar func() float32) {
		a, y := scalar(), buf()
		want := append([]float32(nil), y...)
		axpyGo(a, want, want)
		addToGo(want, want)
		Axpy(a, y, y)
		AddTo(y, y)
		if i, ok := sameBits(y, want); !ok {
			t.Fatalf("aliased n=%d: y[%d] = %x, portable loop %x", n, i,
				math.Float32bits(y[i]), math.Float32bits(want[i]))
		}
	})
}

// TestRowKernelsWriteOnlyTheirRow guards the tails: the elements either side
// of y must come back untouched for every length and offset.
func TestRowKernelsWriteOnlyTheirRow(t *testing.T) {
	const guard = 12345.5
	for n := 0; n <= 67; n++ {
		for off := 1; off < 5; off++ {
			backing := make([]float32, off+n+8)
			for i := range backing {
				backing[i] = guard
			}
			y := backing[off : off+n]
			x := New(1, n).FillRandom(int64(n)).Data
			Axpy(2, x, y)
			AddTo(y, x)
			Axpy4(1, 2, 3, 4, x, x, x, x, y)
			for i, v := range backing {
				if (i < off || i >= off+n) && v != guard {
					t.Fatalf("n=%d off=%d: backing[%d] = %v, kernel wrote outside y", n, off, i, v)
				}
			}
		}
	}
}

// TestRowKernelsShortOperandPanics: an x shorter than y (by capacity, the
// slice expression's own rule) must panic in the Go wrapper; the assembly
// must never be entered and over-read.
func TestRowKernelsShortOperandPanics(t *testing.T) {
	y := make([]float32, 8)
	ok := make([]float32, 8)
	short := make([]float32, 5)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with a short operand did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Axpy", func() { Axpy(1, short, y) })
	mustPanic("AddTo", func() { AddTo(y, short) })
	mustPanic("Axpy4 x0", func() { Axpy4(1, 1, 1, 1, short, ok, ok, ok, y) })
	mustPanic("Axpy4 x1", func() { Axpy4(1, 1, 1, 1, ok, short, ok, ok, y) })
	mustPanic("Axpy4 x2", func() { Axpy4(1, 1, 1, 1, ok, ok, short, ok, y) })
	mustPanic("Axpy4 x3", func() { Axpy4(1, 1, 1, 1, ok, ok, ok, short, y) })
	for _, v := range y {
		if v != 0 {
			t.Fatalf("y written before the panic: %v", y)
		}
	}
}
