//go:build !amd64 || race

package tensor

// The row primitives on every platform without the assembly, and under the
// race detector on amd64: the portable loops themselves.

func axpyRow(a float32, x, y []float32) { axpyGo(a, x, y) }

func addToRow(y, x []float32) { addToGo(y, x) }

func axpy4Row(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32) {
	axpy4Go(a0, a1, a2, a3, x0, x1, x2, x3, y)
}
