//go:build !amd64 || race

package tensor

// The row primitives on every platform without the assembly, and under the
// race detector on amd64: the portable loops themselves.

func axpyRow(a float32, x, y []float32) { axpyGo(a, x, y) }

func addToRow(y, x []float32) { addToGo(y, x) }

func gatherAxpyRow(w float32, x []float32, idx []int32, y []float32) { gatherAxpyGo(w, x, idx, y) }

func scatterAxpyRow(w float32, x []float32, idx []int32, y []float32) { scatterAxpyGo(w, x, idx, y) }

func axpyRowsRow(ws, x, y []float32) { axpyRowsGo(ws, x, y) }

func axpyRowsOutRow(ws, x, add, bias, y []float32) { axpyRowsOutGo(ws, x, add, bias, y) }
