package tensor

// Row primitives: the one inner loop under every hot float loop of an epoch
// (the three matmuls, both aggregations, every elementwise accumulate).
//
// Axpy, AddTo and Axpy4 each update y[j] from x[j] alone: there is no
// cross-element dependency, so how many elements a step handles can change
// neither a value nor the order in which one element receives its terms. On
// amd64 the loop bodies are packed SSE2 (rowkernels_amd64.s); everywhere
// else, and under the race detector (which must see the row writes), they are
// the portable loops below. On amd64 the two produce the same bits: the
// assembly uses separate MULPS/ADDPS, so every lane rounds to float32 after
// the multiply and after each add exactly as the scalar MULSS/ADDSS the
// compiler emits for the portable loops — no fused multiply-add, no wider
// intermediate. The portable loops are the specification; rowkernels_test.go
// holds the assembly to them bit for bit.
//
// Precondition, for all three: y must not partially overlap an x. Rows are
// disjoint at every call site. Axpy and AddTo also accept x and y being the
// very same slice (each element is read before it is written); Axpy4's x rows
// may repeat one another but none may be y.

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

// Axpy4 adds a0*x0 + a1*x1 + a2*x2 + a3*x3 into y, element by element, with
// the four contributions applied in that order (the running value is rounded
// to float32 after each add, exactly as four successive Axpy calls would
// round). Blocking four terms loads and stores y[j] once instead of four
// times. Exported for the GNN aggregator, which blocks neighbours the way
// the matmuls block k.
func Axpy4(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	if n == 0 {
		return
	}
	axpy4Row(a0, a1, a2, a3, x0, x1, x2, x3, y)
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

// axpy4Go is the portable Axpy4 loop; every x has len(y) elements.
func axpy4Go(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j := range y {
		v := y[j]
		v += a0 * x0[j]
		v += a1 * x1[j]
		v += a2 * x2[j]
		v += a3 * x3[j]
		y[j] = v
	}
}
