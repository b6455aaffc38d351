// Package tensor provides the dense float32 linear algebra used by the GNN
// substrate: row-major matrices with the operations GNN layers need
// (matmul, transposed matmuls for backprop, bias, ReLU, row gather/scatter)
// plus deterministic Xavier initialization. Its kernels are what an epoch
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

// MatMul returns a × b. The historical data-dependent zero-skip on a's
// elements is gone: it made kernel cost a function of activation sparsity in
// a way the device cost model never priced, for a win that only materialized
// on artificially sparse inputs (aggregated embeddings are dense in
// practice; see DESIGN.md §11 for the before/after numbers).
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matMulRows(a, *b, out)
	return out
}

// MatMulATB returns aᵀ × b (used for weight gradients).
func MatMulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulATB %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// The column scratch sits behind the result in one slab, as MatMulABT's
	// transposed copy does, so it costs no allocation of its own.
	n := a.Cols * b.Cols
	slab := make([]float32, n+a.Rows)
	out := FromData(a.Cols, b.Cols, slab[:n:n])
	matMulATBRows(a, b, out, slab[n:])
	return out
}

// MatMulABT returns a × bᵀ (used for input gradients): MatMul against a
// transposed copy of b, which is the small operand (a weight matrix). Every
// output element still receives a[i][k]·b[j][k] in ascending k starting from
// +0 — the fixed-order inner product Dot(a.Row(i), b.Row(j)) — but as row
// updates, so it runs on the same kernel as the other two matmuls. The copy
// costs no allocation of its own: its floats sit behind the result's in one
// slab and its header is passed by value.
func MatMulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulABT %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	n := a.Rows * b.Rows
	slab := make([]float32, n+len(b.Data))
	out := FromData(a.Rows, b.Rows, slab[:n:n])
	bt := Matrix{Rows: b.Cols, Cols: b.Rows, Data: slab[n:]}
	for j := 0; j < b.Rows; j++ {
		for k, v := range b.Row(j) {
			bt.Data[k*bt.Cols+j] = v
		}
	}
	matMulRows(a, bt, out)
	return out
}

// matMulRows computes out = a × b with the serial i-k-j loop: one AxpyRows
// per output row, whose k-terms land one at a time in ascending k. b is a
// header by value so that MatMulABT's transposed copy needs no heap header.
func matMulRows(a *Matrix, b Matrix, out *Matrix) {
	for i := 0; i < a.Rows; i++ {
		AxpyRows(a.Row(i), b.Data, out.Row(i))
	}
}

// matMulATBRows computes out = aᵀ × b. The output-row loop k is outermost:
// column k of a is copied into col (a.Rows floats), and one AxpyRows then
// builds output row k from its per-i contributions in ascending i — the
// serial order, since iteration order within one output row is all that
// bit-identity depends on.
func matMulATBRows(a, b, out *Matrix, col []float32) {
	for k := 0; k < a.Cols; k++ {
		for i := range col {
			col[i] = a.Data[i*a.Cols+k]
		}
		AxpyRows(col, b.Data, out.Row(k))
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

// AddBiasInPlace adds a 1×cols bias row to every row of a.
func AddBiasInPlace(a *Matrix, bias *Matrix) {
	if bias.Rows != 1 || bias.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: bias %dx%d for %dx%d", bias.Rows, bias.Cols, a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		AddTo(a.Row(i), bias.Data)
	}
}

// BiasGrad sums the rows of grad into a 1×cols matrix.
func BiasGrad(grad *Matrix) *Matrix {
	out := New(1, grad.Cols)
	for i := 0; i < grad.Rows; i++ {
		AddTo(out.Data, grad.Row(i))
	}
	return out
}

// ReLU returns max(x, 0) elementwise.
func ReLU(a *Matrix) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// ReLUGrad masks grad by the activation pattern of pre (the pre-activation
// input): grad flows only where pre > 0.
func ReLUGrad(pre, grad *Matrix) *Matrix {
	checkSameShape("relugrad", pre, grad)
	out := New(grad.Rows, grad.Cols)
	for i, v := range pre.Data {
		if v > 0 {
			out.Data[i] = grad.Data[i]
		}
	}
	return out
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

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
