//go:build !race

package tensor

// The row primitives in SSE2 (rowkernels_amd64.s). SSE2 is part of the amd64
// baseline, so there is no feature check and nothing to select at run time.
// Callers guarantee every x has len(y) elements and len(y) > 0.

//go:noescape
func axpyRow(a float32, x, y []float32)

//go:noescape
func addToRow(y, x []float32)

//go:noescape
func axpy4Row(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32)
