//go:build amd64 && !purego

#include "textflag.h"

// func mmRowsBcast(dst, a, b, bias []float32, k, n, rows, accum int)
//
// Broadcast-A times row-of-B matmul micro-kernel (SSE2 only — baseline
// for every amd64). For each output row r and column block, it keeps
// packed accumulators (4 columns per XMM register, 16 columns in the
// main block), seeds them with bias (or zero), and walks p ascending:
// broadcast a[r*k+p], multiply by the contiguous b[p*n+j..j+3] quads,
// accumulate. With accum != 0 the finished chain is added to dst in one
// rounding; otherwise it is stored. Each accumulator lane is one output
// element's float32 chain — MULPS/ADDPS per lane round exactly like the
// scalar MULSS/ADDSS — so the result is bitwise identical to the
// pure-Go kernels for every k, n, and worker count. Columns beyond n&^3
// are left for the caller's scalar tail.
//
// Register plan: DI=dst row, SI=a row, DX=b base, R13=bias base (0 if
// none), CX=k, R8=n, R9=rows remaining, R10=j, R11=b column cursor
// (advances n floats per p), BX=a cursor, R12=p countdown, AX=scratch.
// X0-X3 accumulators, X4 broadcast, X5-X8 products, X9-X12 dst loads.
// No calls, no stack: NOSPLIT, frame 0.
TEXT ·mmRowsBcast(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ bias_base+72(FP), R13
	MOVQ k+96(FP), CX
	MOVQ n+104(FP), R8
	MOVQ rows+112(FP), R9
	TESTQ R9, R9
	JZ   done
	TESTQ CX, CX
	JZ   done
rowloop:
	XORQ R10, R10

j16check:
	MOVQ R8, AX
	SUBQ R10, AX
	CMPQ AX, $16
	JLT  j4check

	// 16-column block: 4 packed accumulators.
	LEAQ  (DX)(R10*4), R11
	MOVQ  SI, BX
	MOVQ  CX, R12
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	TESTQ R13, R13
	JZ    p16
	LEAQ  (R13)(R10*4), AX
	MOVUPS (AX), X0
	MOVUPS 16(AX), X1
	MOVUPS 32(AX), X2
	MOVUPS 48(AX), X3
p16:
	MOVSS  (BX), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R11), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS 16(R11), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS 32(R11), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS 48(R11), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $4, BX
	LEAQ   (R11)(R8*4), R11
	DECQ   R12
	JNZ    p16
	LEAQ   (DI)(R10*4), AX
	CMPQ   accum+120(FP), $0
	JEQ    s16
	MOVUPS (AX), X9
	ADDPS  X9, X0
	MOVUPS 16(AX), X10
	ADDPS  X10, X1
	MOVUPS 32(AX), X11
	ADDPS  X11, X2
	MOVUPS 48(AX), X12
	ADDPS  X12, X3
s16:
	MOVUPS X0, (AX)
	MOVUPS X1, 16(AX)
	MOVUPS X2, 32(AX)
	MOVUPS X3, 48(AX)
	ADDQ   $16, R10
	JMP    j16check

j4check:
	MOVQ R8, AX
	SUBQ R10, AX
	CMPQ AX, $4
	JLT  rownext

	// 4-column block: 1 packed accumulator.
	LEAQ  (DX)(R10*4), R11
	MOVQ  SI, BX
	MOVQ  CX, R12
	XORPS X0, X0
	TESTQ R13, R13
	JZ    p4
	MOVUPS (R13)(R10*4), X0
p4:
	MOVSS  (BX), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R11), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	ADDQ   $4, BX
	LEAQ   (R11)(R8*4), R11
	DECQ   R12
	JNZ    p4
	LEAQ   (DI)(R10*4), AX
	CMPQ   accum+120(FP), $0
	JEQ    s4
	MOVUPS (AX), X9
	ADDPS  X9, X0
s4:
	MOVUPS X0, (AX)
	ADDQ   $4, R10
	JMP    j4check

rownext:
	LEAQ (SI)(CX*4), SI
	LEAQ (DI)(R8*4), DI
	DECQ R9
	JNZ  rowloop
done:
	RET
