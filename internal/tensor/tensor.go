// Package tensor provides the dense float32 linear algebra used by the GNN
// substrate: row-major matrices with the operations GNN layers need
// (matmul, transposed matmuls for backprop, a matmul with its bias and ReLU
// fused in, the ReLU mask, row gather/scatter) plus deterministic Xavier
// initialization. The operations a training epoch runs write into
// caller-owned matrices (the …Into forms), so buffers kept across epochs
// are reused instead of allocated. Its kernels are what an epoch
// spends its time in, so they are built for speed under one fixed guarantee:
// every output element receives its terms one at a time, in one order (the
// serial loop's) — no reassociation, no partial sums. All of them run on
// the row primitives (rowkernels.go), packed SSE2 on amd64, with each
// product and each sum rounded to float32 on its own (no fused
// multiply-add), and plain Go elsewhere and under -race; the assembly is
// bit-identical to what the compiler makes of the Go loops on amd64.
// Blocking and register sweeps change how fast the order is walked, never
// the order. (Results are pinned per platform: arm64 Go fuses y += a*x.)
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps existing data (not copied). len(data) must equal rows*cols.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Xavier fills the matrix with Glorot-uniform values using the given seed.
func (m *Matrix) Xavier(seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	limit := float32(math.Sqrt(6.0 / float64(m.Rows+m.Cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
	return m
}

// FillRandom fills with uniform [-1, 1) values (for feature generation).
func (m *Matrix) FillRandom(seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// Reuse returns m when it is a rows×cols matrix and a new zero one otherwise
// (m may be nil): a buffer kept across calls is reallocated only when its
// shape changes. A reused m keeps whatever its last writer left in it.
func Reuse(m *Matrix, rows, cols int) *Matrix {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	return New(rows, cols)
}

// MatMul returns a × b. The historical data-dependent zero-skip on a's
// elements is gone: it made kernel cost a function of activation sparsity in
// a way the device cost model never priced, for a win that only materialized
// on artificially sparse inputs (aggregated embeddings are dense in
// practice; see DESIGN.md §11 for the before/after numbers).
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto sets out = a × b with the serial i-k-j loop: one AxpyRowsSet
// per output row, whose k-terms land one at a time in ascending k from +0.
// out is overwritten, never read.
func MatMulInto(out, a, b *Matrix) {
	checkMatMul("matmul", out, a, b)
	for i := 0; i < a.Rows; i++ {
		AxpyRowsSet(a.Row(i), b.Data, out.Row(i))
	}
}

// MatMulBiasReLUInto sets out = ReLU(a × w + bias) in one sweep per output
// row: AxpyRowsBiasReLU adds the bias and applies the mask to each block of
// the row while its sum is still in registers. Every element is the
// unfused MatMul, bias add and ReLU's, bit for bit.
func MatMulBiasReLUInto(out, a, w, bias *Matrix) {
	checkMatMul("matmul", out, a, w)
	checkBias(out, bias)
	for i := 0; i < a.Rows; i++ {
		AxpyRowsBiasReLU(a.Row(i), w.Data, nil, bias.Data, out.Row(i))
	}
}

// MatMulSumBiasReLUInto sets out = ReLU((a × w + c × v) + bias), each product
// summed on its own from +0 (CommNet's self and neighbour paths): per output
// row, c × v's row goes into row (out.Cols floats of scratch), then one
// AxpyRowsBiasReLU sums a × w's row and adds row and the bias in registers.
func MatMulSumBiasReLUInto(out, a, w, c, v, bias *Matrix, row []float32) {
	checkMatMul("matmul", out, a, w)
	checkMatMul("matmul", out, c, v)
	checkBias(out, bias)
	row = row[:out.Cols]
	for i := 0; i < a.Rows; i++ {
		AxpyRowsSet(c.Row(i), v.Data, row)
		AxpyRowsBiasReLU(a.Row(i), w.Data, row, bias.Data, out.Row(i))
	}
}

// MatMulATBInto sets out = aᵀ × b (weight gradients), using col (a.Rows
// floats) as scratch. The output-row loop k is outermost: column k of a is
// copied into col, and one AxpyRowsSet then builds output row k from its
// per-i contributions in ascending i — the serial order, since iteration
// order within one output row is all that bit-identity depends on.
func MatMulATBInto(out, a, b *Matrix, col []float32) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulATB %dx%d × %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	col = col[:a.Rows]
	for k := 0; k < a.Cols; k++ {
		for i := range col {
			col[i] = a.Data[i*a.Cols+k]
		}
		AxpyRowsSet(col, b.Data, out.Row(k))
	}
}

// MatMulABTInto sets out = a × bᵀ (input gradients): MatMulInto against a
// transposed copy of b, which is the small operand (a weight matrix), written
// into bt (len(b.Data) floats of scratch). Every output element still
// receives a[i][k]·b[j][k] in ascending k starting from +0 — the fixed-order
// inner product Dot(a.Row(i), b.Row(j)) — but as row updates, so it runs on
// the same kernel as the other matmuls.
func MatMulABTInto(out, a, b *Matrix, bt []float32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulABT %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	t := Matrix{Rows: b.Cols, Cols: b.Rows, Data: bt[:len(b.Data)]}
	for j := 0; j < b.Rows; j++ {
		for k, v := range b.Row(j) {
			t.Data[k*t.Cols+j] = v
		}
	}
	MatMulInto(out, a, &t)
}

// SumRowsInto sets sum (a.Cols floats) to the rows of a added one at a time
// from +0 in row order: a bias gradient.
func SumRowsInto(sum []float32, a *Matrix) {
	sum = sum[:a.Cols]
	clear(sum)
	for i := 0; i < a.Rows; i++ {
		AddTo(sum, a.Row(i))
	}
}

// AddInPlace adds b into a (same shape).
func AddInPlace(a, b *Matrix) {
	checkSameShape("add", a, b)
	AddTo(a.Data, b.Data)
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(a *Matrix, s float32) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// GatherRows returns the matrix whose i-th row is a's rows[i]-th row.
func GatherRows(a *Matrix, rows []int32) *Matrix {
	out := New(len(rows), a.Cols)
	for i, r := range rows {
		copy(out.Row(i), a.Row(int(r)))
	}
	return out
}

// Frobenius returns the Frobenius norm.
func Frobenius(a *Matrix) float64 {
	return math.Sqrt(SumSquares(a.Data))
}

// MaxAbsDiff returns the maximum absolute elementwise difference.
func MaxAbsDiff(a, b *Matrix) float64 {
	checkSameShape("maxabsdiff", a, b)
	var m float64
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i]) - float64(b.Data[i])); d > m {
			m = d
		}
	}
	return m
}

func checkMatMul(op string, out, a, b *Matrix) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s %dx%d × %dx%d into %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

func checkBias(out, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != out.Cols {
		panic(fmt.Sprintf("tensor: bias %dx%d for %dx%d", bias.Rows, bias.Cols, out.Rows, out.Cols))
	}
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
