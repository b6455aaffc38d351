//go:build !race

package tensor

// The row primitives in SSE2 (rowkernels_amd64.s). SSE2 is part of the amd64
// baseline, so there is no feature check and nothing to select at run time.
// Callers guarantee what the wrappers in rowkernels.go check: every operand
// long enough, every index in range, the row width > 0, and the term count
// > 0 except for axpyRowsOutRow, which also takes none. axpyRowsOutRow's add
// and bias are nil or len(y) long.

//go:noescape
func axpyRow(a float32, x, y []float32)

//go:noescape
func addToRow(y, x []float32)

//go:noescape
func gatherAxpyRow(w float32, x []float32, idx []int32, y []float32)

//go:noescape
func scatterAxpyRow(w float32, x []float32, idx []int32, y []float32)

//go:noescape
func axpyRowsRow(ws, x, y []float32)

//go:noescape
func axpyRowsOutRow(ws, x, add, bias, y []float32)
