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
// For axpyRow and addToRow the Go wrappers guarantee len(x) == len(y) > 0.

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

// The term-list kernels. Each sweeps its row in blocks of 32 columns, then
// 8, then 4, then 1; a block stays in registers while every term of the list
// is applied to it, so each element of y (or of w·x, for the scatter) is
// loaded once and stored once per call instead of once per term. Blocks are
// disjoint columns, so the order in which one element receives its terms is
// the list's, as in the portable loops.
//
// Registers: X8 holds w (or the current ws[t]) in every lane, X9-X15 are
// products, R8 is the row stride in bytes, R10 walks the term list and R12
// counts down its terms. The Go wrappers guarantee a width > 0, at least one
// term, and every row index in range.

// ROW sets dst to base + idx[t]*stride for the index R10 points at.
#define ROW(base, dst) MOVLQSX (R10), dst; IMULQ R8, dst; ADDQ base, dst
// MULADD adds w·(16 bytes at off(p)) into acc through tmp.
#define MULADD(p, off, tmp, acc) MOVUPS off(p), tmp; MULPS X8, tmp; ADDPS tmp, acc
// ADDTO adds v into the 16 bytes at off(p).
#define ADDTO(v, p, off, tmp) MOVUPS off(p), tmp; ADDPS v, tmp; MOVUPS tmp, off(p)
#define LOAD8(p) MOVUPS (p), X0; MOVUPS 16(p), X1; MOVUPS 32(p), X2; MOVUPS 48(p), X3; MOVUPS 64(p), X4; MOVUPS 80(p), X5; MOVUPS 96(p), X6; MOVUPS 112(p), X7
#define STORE8(p) MOVUPS X0, (p); MOVUPS X1, 16(p); MOVUPS X2, 32(p); MOVUPS X3, 48(p); MOVUPS X4, 64(p); MOVUPS X5, 80(p); MOVUPS X6, 96(p); MOVUPS X7, 112(p)
#define MULADD8(p) MULADD(p, 0, X9, X0); MULADD(p, 16, X10, X1); MULADD(p, 32, X11, X2); MULADD(p, 48, X12, X3); MULADD(p, 64, X13, X4); MULADD(p, 80, X14, X5); MULADD(p, 96, X15, X6); MULADD(p, 112, X9, X7)
#define ADDTO8(p) ADDTO(X0, p, 0, X9); ADDTO(X1, p, 16, X10); ADDTO(X2, p, 32, X11); ADDTO(X3, p, 48, X12); ADDTO(X4, p, 64, X13); ADDTO(X5, p, 80, X14); ADDTO(X6, p, 96, X15); ADDTO(X7, p, 112, X9)
// TERMS restarts the term list: R10 at its first index or weight, R12 at
// its length.
#define TERMS MOVQ DI, R10; MOVQ BX, R12
// NEXT advances to the next term and loops to label while terms remain.
#define NEXT(label) ADDQ $4, R10; DECQ R12; JNZ label

// func gatherAxpyRow(w float32, x []float32, idx []int32, y []float32)
//
// Per block of y: for t in order, block += w·(row idx[t] of x, same columns).
TEXT ·gatherAxpyRow(SB), NOSPLIT, $0-80
	MOVSS  w+0(FP), X8
	SHUFPS $0, X8, X8
	MOVQ   x_base+8(FP), SI    // x at the block's first column
	MOVQ   idx_base+32(FP), DI
	MOVQ   idx_len+40(FP), BX
	MOVQ   y_base+56(FP), DX   // y at the block's first column
	MOVQ   y_len+64(FP), CX    // columns left
	MOVQ   CX, R8
	SHLQ   $2, R8

gather32:
	CMPQ CX, $32
	JB   gather8
	LOAD8(DX)
	TERMS

gather32Term:
	ROW(SI, R11)
	MULADD8(R11)
	NEXT(gather32Term)
	STORE8(DX)
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  gather32

gather8:
	CMPQ   CX, $8
	JB     gather4
	MOVUPS (DX), X0
	MOVUPS 16(DX), X1
	TERMS

gather8Term:
	ROW(SI, R11)
	MULADD(R11, 0, X9, X0)
	MULADD(R11, 16, X10, X1)
	NEXT(gather8Term)
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	ADDQ   $32, SI
	ADDQ   $32, DX
	SUBQ   $8, CX
	JMP    gather8

gather4:
	CMPQ   CX, $4
	JB     gather1
	MOVUPS (DX), X0
	TERMS

gather4Term:
	ROW(SI, R11)
	MULADD(R11, 0, X9, X0)
	NEXT(gather4Term)
	MOVUPS X0, (DX)
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $4, CX
	JMP    gather4

gather1:
	TESTQ CX, CX
	JZ    gatherDone
	MOVSS (DX), X0
	TERMS

gather1Term:
	ROW(SI, R11)
	MOVSS (R11), X9
	MULSS X8, X9
	ADDSS X9, X0
	NEXT(gather1Term)
	MOVSS X0, (DX)
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   gather1

gatherDone:
	RET

// func scatterAxpyRow(w float32, x []float32, idx []int32, y []float32)
//
// Per block of x: p = w·block, once; then for t in order, (row idx[t] of y,
// same columns) += p.
TEXT ·scatterAxpyRow(SB), NOSPLIT, $0-80
	MOVSS  w+0(FP), X8
	SHUFPS $0, X8, X8
	MOVQ   x_base+8(FP), SI    // x at the block's first column
	MOVQ   x_len+16(FP), CX    // columns left
	MOVQ   idx_base+32(FP), DI
	MOVQ   idx_len+40(FP), BX
	MOVQ   y_base+56(FP), DX   // y at the block's first column
	MOVQ   CX, R8
	SHLQ   $2, R8

scatter32:
	CMPQ  CX, $32
	JB    scatter8
	LOAD8(SI)
	MULPS X8, X0
	MULPS X8, X1
	MULPS X8, X2
	MULPS X8, X3
	MULPS X8, X4
	MULPS X8, X5
	MULPS X8, X6
	MULPS X8, X7
	TERMS

scatter32Term:
	ROW(DX, R11)
	ADDTO8(R11)
	NEXT(scatter32Term)
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  scatter32

scatter8:
	CMPQ   CX, $8
	JB     scatter4
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MULPS  X8, X0
	MULPS  X8, X1
	TERMS

scatter8Term:
	ROW(DX, R11)
	ADDTO(X0, R11, 0, X9)
	ADDTO(X1, R11, 16, X10)
	NEXT(scatter8Term)
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  scatter8

scatter4:
	CMPQ   CX, $4
	JB     scatter1
	MOVUPS (SI), X0
	MULPS  X8, X0
	TERMS

scatter4Term:
	ROW(DX, R11)
	ADDTO(X0, R11, 0, X9)
	NEXT(scatter4Term)
	ADDQ $16, SI
	ADDQ $16, DX
	SUBQ $4, CX
	JMP  scatter4

scatter1:
	TESTQ CX, CX
	JZ    scatterDone
	MOVSS (SI), X0
	MULSS X8, X0
	TERMS

scatter1Term:
	ROW(DX, R11)
	MOVSS (R11), X9
	ADDSS X0, X9
	MOVSS X9, (R11)
	NEXT(scatter1Term)
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   scatter1

scatterDone:
	RET

// func axpyRowsRow(ws, x, y []float32)
//
// Per block of y: for t in order, block += ws[t]·(row t of x, same columns).
// R11 walks the rows of x a stride at a time.
TEXT ·axpyRowsRow(SB), NOSPLIT, $0-72
	MOVQ ws_base+0(FP), DI
	MOVQ ws_len+8(FP), BX
	MOVQ x_base+24(FP), SI     // x at the block's first column
	MOVQ y_base+48(FP), DX     // y at the block's first column
	MOVQ y_len+56(FP), CX      // columns left
	MOVQ CX, R8
	SHLQ $2, R8

rows32:
	CMPQ CX, $32
	JB   rows8
	LOAD8(DX)
	TERMS
	MOVQ SI, R11

rows32Term:
	MOVSS  (R10), X8
	SHUFPS $0, X8, X8
	MULADD8(R11)
	ADDQ   R8, R11
	NEXT(rows32Term)
	STORE8(DX)
	ADDQ   $128, SI
	ADDQ   $128, DX
	SUBQ   $32, CX
	JMP    rows32

rows8:
	CMPQ   CX, $8
	JB     rows4
	MOVUPS (DX), X0
	MOVUPS 16(DX), X1
	TERMS
	MOVQ   SI, R11

rows8Term:
	MOVSS  (R10), X8
	SHUFPS $0, X8, X8
	MULADD(R11, 0, X9, X0)
	MULADD(R11, 16, X10, X1)
	ADDQ   R8, R11
	NEXT(rows8Term)
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	ADDQ   $32, SI
	ADDQ   $32, DX
	SUBQ   $8, CX
	JMP    rows8

rows4:
	CMPQ   CX, $4
	JB     rows1
	MOVUPS (DX), X0
	TERMS
	MOVQ   SI, R11

rows4Term:
	MOVSS  (R10), X8
	SHUFPS $0, X8, X8
	MULADD(R11, 0, X9, X0)
	ADDQ   R8, R11
	NEXT(rows4Term)
	MOVUPS X0, (DX)
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $4, CX
	JMP    rows4

rows1:
	TESTQ CX, CX
	JZ    rowsDone
	MOVSS (DX), X0
	TERMS
	MOVQ  SI, R11

rows1Term:
	MOVSS (R11), X9
	MULSS (R10), X9
	ADDSS X9, X0
	ADDQ  R8, R11
	NEXT(rows1Term)
	MOVSS X0, (DX)
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   rows1

rowsDone:
	RET

// func axpyRowsOutRow(ws, x, add, bias, y []float32)
//
// Per block of y: from +0 (y is never read), for t in order, block +=
// ws[t]·(row t of x, same columns); then block += add when add is non-nil,
// and block = max(block + bias, +0) when bias is non-nil, before the block's
// one store. MAXPS with the +0 operand second returns that +0 unless the
// block's lane compares greater, so NaN and -0 both come out as +0. AX and
// R9 hold add and bias (0 when nil), and R13 is the block's byte offset
// into them. With no terms the loops are skipped and the block stays +0.
#define ZERO8 XORPS X0, X0; XORPS X1, X1; XORPS X2, X2; XORPS X3, X3; XORPS X4, X4; XORPS X5, X5; XORPS X6, X6; XORPS X7, X7
// ADDAT adds the 16 bytes at off(p)(R13) into acc through X9.
#define ADDAT(p, off, acc) MOVUPS off(p)(R13*1), X9; ADDPS X9, acc
#define ADDAT8(p) ADDAT(p, 0, X0); ADDAT(p, 16, X1); ADDAT(p, 32, X2); ADDAT(p, 48, X3); ADDAT(p, 64, X4); ADDAT(p, 80, X5); ADDAT(p, 96, X6); ADDAT(p, 112, X7)
#define MAX8 MAXPS X8, X0; MAXPS X8, X1; MAXPS X8, X2; MAXPS X8, X3; MAXPS X8, X4; MAXPS X8, X5; MAXPS X8, X6; MAXPS X8, X7
TEXT ·axpyRowsOutRow(SB), NOSPLIT, $0-120
	MOVQ ws_base+0(FP), DI
	MOVQ ws_len+8(FP), BX
	MOVQ x_base+24(FP), SI     // x at the block's first column
	MOVQ add_base+48(FP), AX
	MOVQ bias_base+72(FP), R9
	MOVQ y_base+96(FP), DX     // y at the block's first column
	MOVQ y_len+104(FP), CX     // columns left
	MOVQ CX, R8
	SHLQ $2, R8
	XORQ R13, R13

out32:
	CMPQ  CX, $32
	JB    out8
	ZERO8
	TESTQ BX, BX
	JZ    out32Add
	TERMS
	MOVQ  SI, R11

out32Term:
	MOVSS  (R10), X8
	SHUFPS $0, X8, X8
	MULADD8(R11)
	ADDQ   R8, R11
	NEXT(out32Term)

out32Add:
	TESTQ AX, AX
	JZ    out32Bias
	ADDAT8(AX)

out32Bias:
	TESTQ R9, R9
	JZ    out32Store
	ADDAT8(R9)
	XORPS X8, X8
	MAX8

out32Store:
	STORE8(DX)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, R13
	SUBQ $32, CX
	JMP  out32

out8:
	CMPQ  CX, $8
	JB    out4
	XORPS X0, X0
	XORPS X1, X1
	TESTQ BX, BX
	JZ    out8Add
	TERMS
	MOVQ  SI, R11

out8Term:
	MOVSS  (R10), X8
	SHUFPS $0, X8, X8
	MULADD(R11, 0, X9, X0)
	MULADD(R11, 16, X10, X1)
	ADDQ   R8, R11
	NEXT(out8Term)

out8Add:
	TESTQ AX, AX
	JZ    out8Bias
	ADDAT(AX, 0, X0)
	ADDAT(AX, 16, X1)

out8Bias:
	TESTQ R9, R9
	JZ    out8Store
	ADDAT(R9, 0, X0)
	ADDAT(R9, 16, X1)
	XORPS X8, X8
	MAXPS X8, X0
	MAXPS X8, X1

out8Store:
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	ADDQ   $32, SI
	ADDQ   $32, DX
	ADDQ   $32, R13
	SUBQ   $8, CX
	JMP    out8

out4:
	CMPQ  CX, $4
	JB    out1
	XORPS X0, X0
	TESTQ BX, BX
	JZ    out4Add
	TERMS
	MOVQ  SI, R11

out4Term:
	MOVSS  (R10), X8
	SHUFPS $0, X8, X8
	MULADD(R11, 0, X9, X0)
	ADDQ   R8, R11
	NEXT(out4Term)

out4Add:
	TESTQ AX, AX
	JZ    out4Bias
	ADDAT(AX, 0, X0)

out4Bias:
	TESTQ R9, R9
	JZ    out4Store
	ADDAT(R9, 0, X0)
	XORPS X8, X8
	MAXPS X8, X0

out4Store:
	MOVUPS X0, (DX)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, R13
	SUBQ   $4, CX
	JMP    out4

out1:
	TESTQ CX, CX
	JZ    outDone
	XORPS X0, X0
	TESTQ BX, BX
	JZ    out1Add
	TERMS
	MOVQ  SI, R11

out1Term:
	MOVSS (R11), X9
	MULSS (R10), X9
	ADDSS X9, X0
	ADDQ  R8, R11
	NEXT(out1Term)

out1Add:
	TESTQ AX, AX
	JZ    out1Bias
	MOVSS (AX)(R13*1), X9
	ADDSS X9, X0

out1Bias:
	TESTQ R9, R9
	JZ    out1Store
	MOVSS (R9)(R13*1), X9
	ADDSS X9, X0
	XORPS X8, X8
	MAXSS X8, X0

out1Store:
	MOVSS X0, (DX)
	ADDQ  $4, SI
	ADDQ  $4, DX
	ADDQ  $4, R13
	DECQ  CX
	JMP   out1

outDone:
	RET
