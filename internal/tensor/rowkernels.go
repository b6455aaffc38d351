package tensor

import (
	"fmt"
	"math"
)

// Row primitives: the inner loops under every hot float loop of an epoch
// (the three matmuls, both aggregations, every elementwise accumulate).
//
// Axpy and AddTo update y[j] from x[j] alone. GatherAxpy, ScatterAxpy,
// AxpyRows, AxpyRowsSet and AxpyRowsBiasReLU each apply a list of row
// terms, and every element receives its terms one at a time in list order,
// each product and each add rounded to float32 on its own. Neither kind has
// a cross-element dependency, so how many elements a step handles, and
// whether the running value sits in a register or in memory between terms,
// can change neither a value nor the order in which one element receives
// its terms. On amd64 the loop bodies are packed SSE2 (rowkernels_amd64.s):
// the term-list kernels sweep the row 32 columns at a time, keeping those
// columns in registers across every term. Everywhere else, and under the
// race detector (which must see the row writes), they are the portable loops
// below. On amd64 the two produce the same bits: the assembly uses separate
// MULPS/ADDPS, so every lane rounds to float32 after the multiply and after
// each add exactly as the scalar MULSS/ADDSS the compiler emits for the
// portable loops — no fused multiply-add, no wider intermediate. The
// portable loops are the specification; rowkernels_test.go holds the
// assembly to them bit for bit.
//
// A matrix operand is its row-major Data; its rows have the width of the
// row operand (len(y), or len(x) for ScatterAxpy). The wrappers check every
// length in Go, and every index either there or once, when its RowIndex was
// built, so nothing unchecked reaches a load or a store. Aliasing
// preconditions, met at every call site: for Axpy and AddTo, y must not
// partially overlap x (the very same slice is allowed: each element is read
// before it is written); for the gathers and the AxpyRows family, y must not
// overlap x, add or bias at all (y is written back only after the last
// term); for ScatterAxpy, x must not overlap y (w·x is read once, before any
// row of y is written). Rows of x may repeat in GatherAxpy, and rows of y in
// ScatterAxpy (duplicate neighbours): each repeat is one more term in order.

// Axpy adds a*x into y elementwise over len(y) entries. The reslice pins
// len(x) == len(y): it is the bounds proof for the loop behind it, and it
// panics here, in Go, when x is too short.
func Axpy(a float32, x, y []float32) {
	x = x[:len(y)]
	if len(y) == 0 {
		return
	}
	axpyRow(a, x, y)
}

// AddTo adds x into y elementwise over len(y) entries — Axpy with a == 1,
// minus the multiply (1*x == x bitwise for every float32 x, so callers may
// use either form interchangeably).
func AddTo(y, x []float32) {
	x = x[:len(y)]
	if len(y) == 0 {
		return
	}
	addToRow(y, x)
}

// RowIndex is a list of row indices into a matrix operand, every one checked
// once, by NewRowIndex, against a row bound. GatherAxpyIndexed and
// ScatterAxpyIndexed then check only that their matrix operand holds that
// many rows, so a list reused every epoch (an aggregator's neighbour lists)
// is walked by the kernels alone.
type RowIndex struct {
	idx  []int32
	rows int
}

// NewRowIndex checks every entry of idx against rows and panics on one
// outside [0, rows). The RowIndex keeps idx, not a copy: idx must not be
// written afterwards (an aggregator's lists are an immutable graph's).
func NewRowIndex(idx []int32, rows int) RowIndex {
	checkRows(idx, rows)
	return RowIndex{idx: idx, rows: rows}
}

// GatherAxpy adds w·(row idx[t] of x) into y for each t in order: the
// forward aggregation of one output row over its neighbours.
func GatherAxpy(w float32, x []float32, idx []int32, y []float32) {
	if len(y) == 0 {
		return
	}
	GatherAxpyIndexed(w, x, NewRowIndex(idx, len(x)/len(y)), y)
}

// GatherAxpyIndexed is GatherAxpy over a checked index: x must hold at least
// ix's bound of rows of len(y), and the reslice panics here, in Go, when it
// is shorter.
func GatherAxpyIndexed(w float32, x []float32, ix RowIndex, y []float32) {
	if len(y) == 0 {
		return
	}
	x = x[:ix.rows*len(y)]
	idx := ix.idx
	for b := blockTerms(len(y)); len(idx) > 0; {
		t := min(b, len(idx))
		gatherAxpyRow(w, x, idx[:t], y)
		idx = idx[t:]
	}
}

// ScatterAxpy adds w·x into row idx[t] of y for each t in order, the
// product rounded once and reused: the backward aggregation of one source
// row into its neighbours.
func ScatterAxpy(w float32, x []float32, idx []int32, y []float32) {
	if len(x) == 0 {
		return
	}
	ScatterAxpyIndexed(w, x, NewRowIndex(idx, len(y)/len(x)), y)
}

// ScatterAxpyIndexed is ScatterAxpy over a checked index: y must hold at
// least ix's bound of rows of len(x).
func ScatterAxpyIndexed(w float32, x []float32, ix RowIndex, y []float32) {
	if len(x) == 0 {
		return
	}
	y = y[:ix.rows*len(x)]
	idx := ix.idx
	for b := blockTerms(len(x)); len(idx) > 0; {
		t := min(b, len(idx))
		scatterAxpyRow(w, x, idx[:t], y)
		idx = idx[t:]
	}
}

// AxpyRows adds ws[t]·(row t of x) into y for each t in order: one output
// row of a matmul, t running over the inner dimension.
func AxpyRows(ws, x, y []float32) {
	x = x[:len(ws)*len(y)]
	if len(y) == 0 || len(ws) == 0 {
		return
	}
	axpyRowsRow(ws, x, y)
}

// AxpyRowsSet sets y to the sum from +0 of ws[t]·(row t of x) in order:
// AxpyRows into a zeroed y, without reading y.
func AxpyRowsSet(ws, x, y []float32) {
	x = x[:len(ws)*len(y)]
	if len(y) == 0 {
		return
	}
	axpyRowsOutRow(ws, x, nil, nil, y)
}

// AxpyRowsBiasReLU sets y to ReLU((s + add) + bias), where s is AxpyRowsSet's
// sum, in the same sweep: each block of y takes the add, the bias and the
// mask in registers, after its last term and before its one store. add may
// be nil (no add); bias may not. The mask maps every element that is not
// > 0 (both zeros, negatives and NaN) to +0, exactly as `if v > 0 { y = v }`
// over a zeroed y does.
func AxpyRowsBiasReLU(ws, x, add, bias, y []float32) {
	x = x[:len(ws)*len(y)]
	bias = bias[:len(y)]
	if add != nil {
		add = add[:len(y)]
	}
	if len(y) == 0 {
		return
	}
	axpyRowsOutRow(ws, x, add, bias, y)
}

// positive is all ones when v > 0 (a positive number, +Inf included) and
// zero otherwise — for both zeros, every negative number and every NaN —
// computed without a branch: v > 0 exactly when its bits b, read as a
// non-negative integer, lie in [1, 0x7f800000].
func positive(v float32) uint32 {
	b := int64(math.Float32bits(v))
	return uint32((b - 0x7f800001) >> 63 &^ ((b - 1) >> 63))
}

// ReLUMaskInto sets out to grad where post > 0 and to +0 elsewhere, without
// a branch: the backward mask of a ReLU whose output (or input: the two are
// positive in the same places) is post. out may be grad itself.
func ReLUMaskInto(out, post, grad *Matrix) {
	checkSameShape("relumask", out, post)
	checkSameShape("relumask", out, grad)
	y, p, g := out.Data, post.Data[:len(out.Data)], grad.Data[:len(out.Data)]
	for j := range y {
		y[j] = math.Float32frombits(math.Float32bits(g[j]) & positive(p[j]))
	}
}

// blockTerms is how many terms one gather or scatter call applies to rows n
// columns wide: the rows those terms name, 32 KB in all, then stay in L1
// from one column block of the sweep to the next instead of being fetched
// again per block (at 256 columns this is what keeps the sweep from losing
// to a row-at-a-time loop). It moves no bit: between calls the running row
// waits in memory as the float32 the register held.
func blockTerms(n int) int { return max(1, 8192/n) }

// checkRows panics unless every index names one of rows rows.
func checkRows(idx []int32, rows int) {
	for _, r := range idx {
		if uint(int(r)) >= uint(rows) {
			panic(fmt.Sprintf("tensor: row index %d out of range [0, %d)", r, rows))
		}
	}
}

// axpyGo is the portable Axpy loop; len(x) == len(y).
func axpyGo(a float32, x, y []float32) {
	// Slice-advance unroll: the loop conditions prove every index in the
	// body, so the compiler emits no per-element bounds checks.
	for len(x) >= 4 && len(y) >= 4 {
		y[0] += a * x[0]
		y[1] += a * x[1]
		y[2] += a * x[2]
		y[3] += a * x[3]
		x, y = x[4:], y[4:]
	}
	if len(x) >= 2 && len(y) >= 2 {
		y[0] += a * x[0]
		y[1] += a * x[1]
		x, y = x[2:], y[2:]
	}
	if len(x) >= 1 && len(y) >= 1 {
		y[0] += a * x[0]
	}
}

// addToGo is the portable AddTo loop; len(x) == len(y).
func addToGo(y, x []float32) {
	for len(x) >= 4 && len(y) >= 4 {
		y[0] += x[0]
		y[1] += x[1]
		y[2] += x[2]
		y[3] += x[3]
		x, y = x[4:], y[4:]
	}
	if len(x) >= 2 && len(y) >= 2 {
		y[0] += x[0]
		y[1] += x[1]
		x, y = x[2:], y[2:]
	}
	if len(x) >= 1 && len(y) >= 1 {
		y[0] += x[0]
	}
}

// gatherAxpyGo is the portable GatherAxpy loop.
func gatherAxpyGo(w float32, x []float32, idx []int32, y []float32) {
	n := len(y)
	for _, r := range idx {
		axpyGo(w, x[int(r)*n:int(r)*n+n], y)
	}
}

// scatterAxpyGo is the portable ScatterAxpy loop. w*x[j] is the same rounded
// product for every t, so computing it per term is computing it once.
func scatterAxpyGo(w float32, x []float32, idx []int32, y []float32) {
	n := len(x)
	for _, r := range idx {
		axpyGo(w, x, y[int(r)*n:int(r)*n+n])
	}
}

// axpyRowsGo is the portable AxpyRows loop.
func axpyRowsGo(ws, x, y []float32) {
	n := len(y)
	for t, w := range ws {
		axpyGo(w, x[t*n:t*n+n], y)
	}
}

// axpyRowsOutGo is the portable loop of AxpyRowsSet (add and bias nil) and
// AxpyRowsBiasReLU: the sum from +0, then the add, then the bias and the
// mask.
func axpyRowsOutGo(ws, x, add, bias, y []float32) {
	clear(y)
	axpyRowsGo(ws, x, y)
	if add != nil {
		addToGo(y, add)
	}
	if bias != nil {
		addToGo(y, bias)
		reluGo(y)
	}
}

// reluGo sets y[j] to max(y[j], +0) with NaN to +0, branch-free.
func reluGo(y []float32) {
	for j, v := range y {
		y[j] = math.Float32frombits(math.Float32bits(v) & positive(v))
	}
}
