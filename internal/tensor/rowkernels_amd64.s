//go:build !race

#include "textflag.h"

// Packed-SSE2 bodies of the row primitives (rowkernels.go). Every element is
// y[j] (+)= a*x[j] with a separate multiply and add — MULPS/ADDPS in the
// vector loops, MULSS/ADDSS in the scalar tail — so each lane rounds to
// float32 after the multiply and after every add, which is what the portable
// Go loops compile to on amd64. Nothing here is newer than SSE2: no FMA, no
// VEX encoding, no feature test. Loads and stores are unaligned (MOVUPS);
// rows start wherever the matrix puts them.
//
// The Go wrappers guarantee len(x) == len(y) > 0 for every x.

// func axpyRow(a float32, x, y []float32)
TEXT ·axpyRow(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0, X0, X0          // a in all four lanes
	MOVQ   x_base+8(FP), SI
	MOVQ   y_base+32(FP), DX
	MOVQ   y_len+40(FP), CX
	XORQ   AX, AX              // byte offset into x and y

axpyLoop16:
	CMPQ   CX, $16
	JB     axpyLoop4
	MOVUPS (SI)(AX*1), X1
	MOVUPS 16(SI)(AX*1), X2
	MOVUPS 32(SI)(AX*1), X3
	MOVUPS 48(SI)(AX*1), X4
	MOVUPS (DX)(AX*1), X5
	MOVUPS 16(DX)(AX*1), X6
	MOVUPS 32(DX)(AX*1), X7
	MOVUPS 48(DX)(AX*1), X8
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DX)(AX*1)
	MOVUPS X6, 16(DX)(AX*1)
	MOVUPS X7, 32(DX)(AX*1)
	MOVUPS X8, 48(DX)(AX*1)
	ADDQ   $64, AX
	SUBQ   $16, CX
	JMP    axpyLoop16

axpyLoop4:
	CMPQ   CX, $4
	JB     axpyTail
	MOVUPS (SI)(AX*1), X1
	MOVUPS (DX)(AX*1), X5
	MULPS  X0, X1
	ADDPS  X1, X5
	MOVUPS X5, (DX)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    axpyLoop4

axpyTail:
	TESTQ  CX, CX
	JZ     axpyDone
	MOVSS  (SI)(AX*1), X1
	MOVSS  (DX)(AX*1), X5
	MULSS  X0, X1
	ADDSS  X1, X5
	MOVSS  X5, (DX)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JMP    axpyTail

axpyDone:
	RET

// func addToRow(y, x []float32)
TEXT ·addToRow(SB), NOSPLIT, $0-48
	MOVQ   y_base+0(FP), DX
	MOVQ   y_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	XORQ   AX, AX

addToLoop16:
	CMPQ   CX, $16
	JB     addToLoop4
	MOVUPS (SI)(AX*1), X1
	MOVUPS 16(SI)(AX*1), X2
	MOVUPS 32(SI)(AX*1), X3
	MOVUPS 48(SI)(AX*1), X4
	MOVUPS (DX)(AX*1), X5
	MOVUPS 16(DX)(AX*1), X6
	MOVUPS 32(DX)(AX*1), X7
	MOVUPS 48(DX)(AX*1), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DX)(AX*1)
	MOVUPS X6, 16(DX)(AX*1)
	MOVUPS X7, 32(DX)(AX*1)
	MOVUPS X8, 48(DX)(AX*1)
	ADDQ   $64, AX
	SUBQ   $16, CX
	JMP    addToLoop16

addToLoop4:
	CMPQ   CX, $4
	JB     addToTail
	MOVUPS (SI)(AX*1), X1
	MOVUPS (DX)(AX*1), X5
	ADDPS  X1, X5
	MOVUPS X5, (DX)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    addToLoop4

addToTail:
	TESTQ  CX, CX
	JZ     addToDone
	MOVSS  (SI)(AX*1), X1
	MOVSS  (DX)(AX*1), X5
	ADDSS  X1, X5
	MOVSS  X5, (DX)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JMP    addToTail

addToDone:
	RET

// func axpy4Row(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32)
//
// Per element: v = y; v += a0*x0; v += a1*x1; v += a2*x2; v += a3*x3; y = v,
// the four adds in that order. y is loaded and stored once per element.
TEXT ·axpy4Row(SB), NOSPLIT, $0-136
	MOVSS  a0+0(FP), X0
	SHUFPS $0, X0, X0
	MOVSS  a1+4(FP), X1
	SHUFPS $0, X1, X1
	MOVSS  a2+8(FP), X2
	SHUFPS $0, X2, X2
	MOVSS  a3+12(FP), X3
	SHUFPS $0, X3, X3
	MOVQ   x0_base+16(FP), SI
	MOVQ   x1_base+40(FP), DI
	MOVQ   x2_base+64(FP), R8
	MOVQ   x3_base+88(FP), R9
	MOVQ   y_base+112(FP), DX
	MOVQ   y_len+120(FP), CX
	XORQ   AX, AX

axpy4Loop8:
	CMPQ   CX, $8
	JB     axpy4Loop4
	MOVUPS (DX)(AX*1), X4
	MOVUPS 16(DX)(AX*1), X5
	MOVUPS (SI)(AX*1), X6
	MOVUPS 16(SI)(AX*1), X7
	MOVUPS (DI)(AX*1), X8
	MOVUPS 16(DI)(AX*1), X9
	MOVUPS (R8)(AX*1), X10
	MOVUPS 16(R8)(AX*1), X11
	MOVUPS (R9)(AX*1), X12
	MOVUPS 16(R9)(AX*1), X13
	MULPS  X0, X6
	MULPS  X0, X7
	MULPS  X1, X8
	MULPS  X1, X9
	MULPS  X2, X10
	MULPS  X2, X11
	MULPS  X3, X12
	MULPS  X3, X13
	ADDPS  X6, X4
	ADDPS  X7, X5
	ADDPS  X8, X4
	ADDPS  X9, X5
	ADDPS  X10, X4
	ADDPS  X11, X5
	ADDPS  X12, X4
	ADDPS  X13, X5
	MOVUPS X4, (DX)(AX*1)
	MOVUPS X5, 16(DX)(AX*1)
	ADDQ   $32, AX
	SUBQ   $8, CX
	JMP    axpy4Loop8

axpy4Loop4:
	CMPQ   CX, $4
	JB     axpy4Tail
	MOVUPS (DX)(AX*1), X4
	MOVUPS (SI)(AX*1), X6
	MOVUPS (DI)(AX*1), X8
	MOVUPS (R8)(AX*1), X10
	MOVUPS (R9)(AX*1), X12
	MULPS  X0, X6
	MULPS  X1, X8
	MULPS  X2, X10
	MULPS  X3, X12
	ADDPS  X6, X4
	ADDPS  X8, X4
	ADDPS  X10, X4
	ADDPS  X12, X4
	MOVUPS X4, (DX)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    axpy4Loop4

axpy4Tail:
	TESTQ  CX, CX
	JZ     axpy4Done
	MOVSS  (DX)(AX*1), X4
	MOVSS  (SI)(AX*1), X6
	MOVSS  (DI)(AX*1), X8
	MOVSS  (R8)(AX*1), X10
	MOVSS  (R9)(AX*1), X12
	MULSS  X0, X6
	MULSS  X1, X8
	MULSS  X2, X10
	MULSS  X3, X12
	ADDSS  X6, X4
	ADDSS  X8, X4
	ADDSS  X10, X4
	ADDSS  X12, X4
	MOVSS  X4, (DX)(AX*1)
	ADDQ   $4, AX
	DECQ   CX
	JMP    axpy4Tail

axpy4Done:
	RET
