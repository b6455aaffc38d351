package tensor

// The unfused, allocating forms of the epoch's operations, kept as the
// references the fused and buffer-writing ones are held to. MatMulATB and
// MatMulABT run the production kernels (MatMulATBInto, MatMulABTInto) over a
// fresh result, its scratch behind its floats in one slab so it costs no
// allocation of its own; the bias and ReLU helpers are the separate passes
// the fused matmul replaced, with the `if` the branch-free masks must agree
// with.

// MatMulATB returns aᵀ × b.
func MatMulATB(a, b *Matrix) *Matrix {
	n := a.Cols * b.Cols
	slab := make([]float32, n+a.Rows)
	out := FromData(a.Cols, b.Cols, slab[:n:n])
	MatMulATBInto(out, a, b, slab[n:])
	return out
}

// MatMulABT returns a × bᵀ.
func MatMulABT(a, b *Matrix) *Matrix {
	n := a.Rows * b.Rows
	slab := make([]float32, n+len(b.Data))
	out := FromData(a.Rows, b.Rows, slab[:n:n])
	MatMulABTInto(out, a, b, slab[n:])
	return out
}

// AddBiasInPlace adds a 1×cols bias row to every row of a.
func AddBiasInPlace(a *Matrix, bias *Matrix) {
	checkBias(a, bias)
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
