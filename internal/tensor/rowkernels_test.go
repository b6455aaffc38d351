package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Kernel-vs-reference battery for the row primitives. Axpy, AddTo,
// GatherAxpy, ScatterAxpy and AxpyRows are whatever the build selected (the
// SSE2 assembly on amd64, the portable loops elsewhere and under -race);
// axpyGo, addToGo, gatherAxpyGo, scatterAxpyGo and axpyRowsGo are the
// portable loops themselves, always compiled, and are the reference: every
// result must carry the same bits.

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

// forEachRowCase runs fn over every length 0-67 (every block trip count and
// tail the kernels have) at sub-slice start offsets 0-3 (so loads and stores
// are 4-, 8- and 12-byte misaligned as well as aligned), with random and
// with table operands. buf(rows) returns a fresh operand of rows rows of n
// elements at the case's offset inside a larger backing array.
func forEachRowCase(t *testing.T, fn func(n int, buf func(rows int) []float32, scalar func() float32)) {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, edge := range []bool{false, true} {
				buf := func(rows int) []float32 { return fill(rng, off+rows*n+3, edge)[off : off+rows*n] }
				scalar := func() float32 { return fill(rng, 1, edge)[0] }
				for rep := 0; rep < 4; rep++ {
					fn(n, buf, scalar)
				}
			}
		}
	}
}

// indexRows is the row count of the matrix operand the index lists below
// address.
const indexRows = 4

// indexLists are the term lists the gather and scatter kernels are checked
// over: empty, single, repeated (duplicates apart and adjacent, as duplicate
// neighbours come), all-equal, and one long enough that from 64 columns on
// the wrapper splits it over two calls (blockTerms).
func indexLists() [][]int32 {
	rng := rand.New(rand.NewSource(7))
	long := make([]int32, 130)
	for i := range long {
		long[i] = int32(rng.Intn(indexRows))
	}
	return [][]int32{{}, {2}, {3, 0, 3, 1, 1, 3}, {1, 1, 1, 1, 1}, long}
}

func TestAxpyBitIdenticalToPortable(t *testing.T) {
	forEachRowCase(t, func(n int, buf func(int) []float32, scalar func() float32) {
		a, x, y := scalar(), buf(1), buf(1)
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
	forEachRowCase(t, func(n int, buf func(int) []float32, _ func() float32) {
		x, y := buf(1), buf(1)
		want := append([]float32(nil), y...)
		addToGo(want, x)
		AddTo(y, x)
		if i, ok := sameBits(y, want); !ok {
			t.Fatalf("AddTo n=%d: y[%d] = %x, portable loop %x (x=%x)", n, i,
				math.Float32bits(y[i]), math.Float32bits(want[i]), math.Float32bits(x[i]))
		}
	})
}

// TestRowKernelsGatherAxpy holds GatherAxpy to its portable loop, which is
// one Axpy per term in list order.
func TestRowKernelsGatherAxpy(t *testing.T) {
	forEachRowCase(t, func(n int, buf func(int) []float32, scalar func() float32) {
		for _, idx := range indexLists() {
			w, x, y := scalar(), buf(indexRows), buf(1)
			want := append([]float32(nil), y...)
			gatherAxpyGo(w, x, idx, want)
			GatherAxpy(w, x, idx, y)
			if i, ok := sameBits(y, want); !ok {
				t.Fatalf("GatherAxpy n=%d idx=%v: y[%d] = %x, portable loop %x", n, idx, i,
					math.Float32bits(y[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// TestRowKernelsScatterAxpy holds ScatterAxpy to its portable loop, which is
// one Axpy into a row of y per term in list order.
func TestRowKernelsScatterAxpy(t *testing.T) {
	forEachRowCase(t, func(n int, buf func(int) []float32, scalar func() float32) {
		for _, idx := range indexLists() {
			w, x, y := scalar(), buf(1), buf(indexRows)
			want := append([]float32(nil), y...)
			scatterAxpyGo(w, x, idx, want)
			ScatterAxpy(w, x, idx, y)
			if i, ok := sameBits(y, want); !ok {
				t.Fatalf("ScatterAxpy n=%d idx=%v: y[%d] = %x, portable loop %x", n, idx, i,
					math.Float32bits(y[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// TestRowKernelsAxpyRows holds AxpyRows to its portable loop, which is one
// Axpy per row of x in row order.
func TestRowKernelsAxpyRows(t *testing.T) {
	forEachRowCase(t, func(n int, buf func(int) []float32, scalar func() float32) {
		for _, terms := range []int{0, 1, 2, 5, 41} {
			ws := make([]float32, terms)
			for i := range ws {
				ws[i] = scalar()
			}
			x, y := buf(terms), buf(1)
			want := append([]float32(nil), y...)
			axpyRowsGo(ws, x, want)
			AxpyRows(ws, x, y)
			if i, ok := sameBits(y, want); !ok {
				t.Fatalf("AxpyRows n=%d terms=%d: y[%d] = %x, portable loop %x", n, terms, i,
					math.Float32bits(y[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// TestRowKernelsIdenticalSlices: x and y may be the same slice (each lane
// reads its own element before writing it); only a partial overlap is
// excluded by the precondition.
func TestRowKernelsIdenticalSlices(t *testing.T) {
	forEachRowCase(t, func(n int, buf func(int) []float32, scalar func() float32) {
		a, y := scalar(), buf(1)
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
// of y, and for the scatter the rows of y no index names, must come back
// untouched for every length and offset.
func TestRowKernelsWriteOnlyTheirRow(t *testing.T) {
	const guard = 12345.5
	for n := 0; n <= 67; n++ {
		for off := 1; off < 5; off++ {
			backing := make([]float32, off+3*n+8)
			for i := range backing {
				backing[i] = guard
			}
			y := backing[off : off+n]
			x := New(3, n).FillRandom(int64(n)).Data
			Axpy(2, x[:n], y)
			AddTo(y, x[:n])
			GatherAxpy(3, x, []int32{2, 0, 2}, y)
			AxpyRows([]float32{1, 2, 3}, x, y)
			ScatterAxpy(5, x[:n], []int32{2, 0, 2}, backing[off:off+3*n])
			for i, v := range backing {
				if (i < off || i >= off+n) && (i < off+2*n || i >= off+3*n) && v != guard {
					t.Fatalf("n=%d off=%d: backing[%d] = %v, kernel wrote outside its rows", n, off, i, v)
				}
			}
		}
	}
}

// TestRowKernelsShortOperandPanics: an operand shorter than the row width
// asks for (by capacity, the slice expression's own rule), or a row index
// outside the matrix operand, negative included, must panic in the Go
// wrapper before anything is written; the assembly must never be entered
// and read or write out of bounds.
func TestRowKernelsShortOperandPanics(t *testing.T) {
	y := make([]float32, 8)
	ok := make([]float32, 16)
	short := make([]float32, 5)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Axpy short x", func() { Axpy(1, short, y) })
	mustPanic("AddTo short x", func() { AddTo(y, short) })
	mustPanic("GatherAxpy short x", func() { GatherAxpy(1, short, []int32{0}, y) })
	mustPanic("ScatterAxpy short y", func() { ScatterAxpy(1, y, []int32{0}, short) })
	mustPanic("AxpyRows short x", func() { AxpyRows([]float32{1, 1, 1}, ok, y) })
	for _, idx := range [][]int32{{2}, {-1}, {0, 1, 2}, {1, -1, 0}, {1 << 30}, {math.MinInt32}} {
		mustPanic(fmt.Sprintf("GatherAxpy idx=%v", idx), func() { GatherAxpy(1, ok, idx, y) })
		mustPanic(fmt.Sprintf("ScatterAxpy idx=%v", idx), func() { ScatterAxpy(1, ok[:8], idx, y) })
		mustPanic(fmt.Sprintf("ScatterAxpy idx=%v into 2 rows", idx), func() { ScatterAxpy(1, ok[:4], idx, y) })
	}
	for _, v := range y {
		if v != 0 {
			t.Fatalf("y written before the panic: %v", y)
		}
	}
}

// unfusedOut is what AxpyRowsSet (bias nil) and AxpyRowsBiasReLU compute,
// as the separate passes they replaced: AxpyRows into a zeroed row, the add,
// the bias, then the `if` ReLU over a zeroed result.
func unfusedOut(ws, x, add, bias []float32, n int) []float32 {
	y := make([]float32, n)
	axpyRowsGo(ws, x, y)
	if add != nil {
		addToGo(y, add)
	}
	if bias == nil {
		return y
	}
	addToGo(y, bias)
	out := make([]float32, n)
	for j, v := range y {
		if v > 0 {
			out[j] = v
		}
	}
	return out
}

// TestRowKernelsAxpyRowsOutBitIdentical holds AxpyRowsSet and
// AxpyRowsBiasReLU, with and without an add, to their portable loop and
// both to the unfused passes, over every length, offset and table operand:
// the fused epilogue and the branch-free mask must give the `if` loop's bits
// for NaN, both zeros, denormals and both infinities. y starts as junk,
// which neither may read, and the elements either side of y must come back
// untouched.
func TestRowKernelsAxpyRowsOutBitIdentical(t *testing.T) {
	const guard = 12345.5
	forEachRowCase(t, func(n int, buf func(int) []float32, scalar func() float32) {
		for _, terms := range []int{0, 1, 2, 5, 41} {
			ws := make([]float32, terms)
			for i := range ws {
				ws[i] = scalar()
			}
			x, add, bias := buf(terms), buf(1), buf(1)
			for _, c := range []struct {
				name      string
				add, bias []float32
			}{{"AxpyRowsSet", nil, nil}, {"AxpyRowsBiasReLU", nil, bias}, {"AxpyRowsBiasReLU+add", add, bias}} {
				want := unfusedOut(ws, x, c.add, c.bias, n)
				port := buf(1)
				axpyRowsOutGo(ws, x, c.add, c.bias, port)
				backing := append(append([]float32{guard}, buf(1)...), guard)
				y := backing[1 : 1+n]
				if c.bias == nil {
					AxpyRowsSet(ws, x, y)
				} else {
					AxpyRowsBiasReLU(ws, x, c.add, c.bias, y)
				}
				if i, ok := sameBits(port, want); !ok {
					t.Fatalf("%s portable n=%d terms=%d: y[%d] = %x, unfused %x", c.name, n, terms, i,
						math.Float32bits(port[i]), math.Float32bits(want[i]))
				}
				if i, ok := sameBits(y, want); !ok {
					t.Fatalf("%s n=%d terms=%d: y[%d] = %x, unfused %x", c.name, n, terms, i,
						math.Float32bits(y[i]), math.Float32bits(want[i]))
				}
				if backing[0] != guard || backing[n+1] != guard {
					t.Fatalf("%s n=%d: wrote outside its row", c.name, n)
				}
			}
		}
	})
}

// TestRowKernelsReLUMaskBitIdentical: the branch-free mask equals the `if`
// loop (ReLUGrad) bit for bit, on random bit patterns and on the table, in
// place as well; positive agrees with v > 0 on the table, on every NaN and
// infinity boundary, and on random bits.
func TestRowKernelsReLUMaskBitIdentical(t *testing.T) {
	forEachRowCase(t, func(n int, buf func(int) []float32, _ func() float32) {
		post, grad := FromData(1, n, buf(1)), FromData(1, n, buf(1))
		want := ReLUGrad(post, grad)
		out := FromData(1, n, buf(1))
		ReLUMaskInto(out, post, grad)
		if !bitsEqual(out, want) {
			t.Fatalf("ReLUMaskInto n=%d: %v, if loop %v", n, out.Data, want.Data)
		}
		ReLUMaskInto(grad, post, grad)
		if !bitsEqual(grad, want) {
			t.Fatalf("ReLUMaskInto in place n=%d: %v, if loop %v", n, grad.Data, want.Data)
		}
	})
	bounds := []uint32{0, 1, 0x007fffff, 0x00800000, 0x7f7fffff, 0x7f800000, 0x7f800001, 0x7fc00000, 0x7fffffff,
		0x80000000, 0x80000001, 0xff800000, 0xff800001, 0xffc00000, 0xffffffff}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<16; i++ {
		bounds = append(bounds, rng.Uint32())
	}
	for _, v := range edgeValues {
		bounds = append(bounds, math.Float32bits(v))
	}
	for _, b := range bounds {
		v := math.Float32frombits(b)
		if want := v > 0; (positive(v) == ^uint32(0)) != want || (positive(v) != 0 && positive(v) != ^uint32(0)) {
			t.Fatalf("positive(%x) = %x, v > 0 is %v", b, positive(v), want)
		}
	}
}

// TestRowKernelsIndexedShortOperandPanics: a RowIndex is checked once, so
// NewRowIndex must panic on any index outside its bound, and the indexed
// kernels must panic in Go, before anything is written, when the matrix
// operand holds fewer rows than that bound — even when every index in the
// list names a row the operand does hold.
func TestRowKernelsIndexedShortOperandPanics(t *testing.T) {
	y := make([]float32, 8)
	ok := make([]float32, 16)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	for _, idx := range [][]int32{{2}, {-1}, {0, 1, 2}, {1, -1, 0}, {1 << 30}, {math.MinInt32}} {
		mustPanic(fmt.Sprintf("NewRowIndex idx=%v rows=2", idx), func() { NewRowIndex(idx, 2) })
	}
	ix := NewRowIndex([]int32{0, 1}, 3)
	mustPanic("GatherAxpyIndexed h with too few rows", func() { GatherAxpyIndexed(1, ok, ix, y) })
	mustPanic("ScatterAxpyIndexed y with too few rows", func() { ScatterAxpyIndexed(1, y, ix, ok) })
	for _, v := range append(y, ok...) {
		if v != 0 {
			t.Fatalf("operand written before the panic: %v %v", y, ok)
		}
	}
	// At the bound both run.
	GatherAxpyIndexed(1, make([]float32, 24), ix, y)
	ScatterAxpyIndexed(1, y, ix, make([]float32, 24))
}
