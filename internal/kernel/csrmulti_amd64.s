#include "textflag.h"

// The vector body of csrMultiRows (multivec.go) for widths nv >= 2, one
// routine per index width, both generated from CSR_MULTI_ROWS:
//
//	func csrMultiRowsAVX32(rowPtr []int64, col []uint32, val, x, y []float64, nv, lo, hi, cols int) (next int)
//	func csrMultiRowsAVX16(rowPtr []int64, col []uint16, val, x, y []float64, nv, lo, hi, cols int) (next int)
//
// Each row's lanes are split into groups of 8 (two YMM accumulators), 4
// (one YMM), 2 (XMM) and 1 (scalar), and every group makes one pass over
// the row's nonzeros: lane l computes round(v*x[c*nv+l]) with VMULPD and
// adds it into its accumulator with VADDPD in stored column order, then
// adds the row sum into y once. Those are the Go body's operations one for
// one, so the bits are the Go body's. There is no FMA instruction here
// (TestVectorBodyHasNoFMA).
//
// Every memory operand is in range, by a check here or a Go precondition
// (csrMultiRowsVec):
//
//	rowPtr[i], rowPtr[i+1]  lo <= i < hi < len(rowPtr)                  Go
//	val[n], col[n]          rowPtr[i] <= n < rowPtr[i+1] (unsigned)      here, per row
//	                        rowPtr[i+1] <= len(val) (unsigned)           here, per row
//	                        len(col) == len(val)                         Go
//	x[col*nv + l]           col < cols                                   here, per nonzero
//	                        l < nv, cols*nv <= len(x)                    Go
//	y[i*nv + l]             i < hi, l < nv, hi*nv <= len(y)              Go
//
// A failed check stops before the load and returns the row it was on
// (next < hi); a full sweep returns next == hi. Earlier rows are already
// written, as the Go body's would be when its bounds check panics.
//
// Registers: SI rowPtr, DI col, DX val, R8 x + lane offset, R9 &y[i*nv],
// R11 nv*8, R12 cols, BX i, AX rowPtr[i], R14 rowPtr[i+1], R10 n,
// R13 col[n]*nv*8 (a scratch register between passes), CX lane offset in
// bytes.
#define CSR_MULTI_ROWS(LOADCOL) \
	MOVQ  rowPtr_base+0(FP), SI \
	MOVQ  col_base+24(FP), DI \
	MOVQ  val_base+48(FP), DX \
	MOVQ  nv+120(FP), R11 \
	SHLQ  $3, R11 \
	MOVQ  cols+144(FP), R12 \
	MOVQ  lo+128(FP), BX \
	MOVQ  BX, R9 \
	IMULQ R11, R9 \
	ADDQ  y_base+96(FP), R9 \
row: \
	CMPQ  BX, hi+136(FP) \
	JGE   done \
	MOVQ  (SI)(BX*8), AX \
	MOVQ  8(SI)(BX*8), R14 \
	CMPQ  AX, R14 \
	JHI   done \
	CMPQ  R14, val_len+56(FP) \
	JHI   done \
	XORQ  CX, CX \
group: \
	MOVQ  x_base+72(FP), R8 \
	ADDQ  CX, R8 \
	MOVQ  AX, R10 \
	MOVQ  R11, R13 \
	SUBQ  CX, R13 \
	CMPQ  R13, $64 \
	JAE   lanes8 \
	CMPQ  R13, $32 \
	JAE   lanes4 \
	CMPQ  R13, $16 \
	JAE   lanes2 \
	CMPQ  R13, $8 \
	JAE   lanes1 \
	ADDQ  R11, R9 \
	INCQ  BX \
	JMP   row \
lanes8: \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	CMPQ  R10, R14 \
	JAE   store8 \
	PCALIGN $32 \
loop8: \
	LOADCOL \
	CMPQ  R13, R12 \
	JAE   done \
	IMULQ R11, R13 \
	VBROADCASTSD (DX)(R10*8), Y15 \
	VMULPD (R8)(R13*1), Y15, Y14 \
	VADDPD Y14, Y0, Y0 \
	VMULPD 32(R8)(R13*1), Y15, Y13 \
	VADDPD Y13, Y1, Y1 \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop8 \
store8: \
	VADDPD (R9)(CX*1), Y0, Y0 \
	VMOVUPD Y0, (R9)(CX*1) \
	VADDPD 32(R9)(CX*1), Y1, Y1 \
	VMOVUPD Y1, 32(R9)(CX*1) \
	ADDQ  $64, CX \
	JMP   group \
lanes4: \
	VXORPD Y0, Y0, Y0 \
	CMPQ  R10, R14 \
	JAE   store4 \
	PCALIGN $32 \
loop4: \
	LOADCOL \
	CMPQ  R13, R12 \
	JAE   done \
	IMULQ R11, R13 \
	VBROADCASTSD (DX)(R10*8), Y15 \
	VMULPD (R8)(R13*1), Y15, Y14 \
	VADDPD Y14, Y0, Y0 \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop4 \
store4: \
	VADDPD (R9)(CX*1), Y0, Y0 \
	VMOVUPD Y0, (R9)(CX*1) \
	ADDQ  $32, CX \
	JMP   group \
lanes2: \
	VXORPD X0, X0, X0 \
	CMPQ  R10, R14 \
	JAE   store2 \
loop2: \
	LOADCOL \
	CMPQ  R13, R12 \
	JAE   done \
	IMULQ R11, R13 \
	VMOVDDUP (DX)(R10*8), X15 \
	VMULPD (R8)(R13*1), X15, X14 \
	VADDPD X14, X0, X0 \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop2 \
store2: \
	VADDPD (R9)(CX*1), X0, X0 \
	VMOVUPD X0, (R9)(CX*1) \
	ADDQ  $16, CX \
	JMP   group \
lanes1: \
	VXORPD X0, X0, X0 \
	CMPQ  R10, R14 \
	JAE   store1 \
loop1: \
	LOADCOL \
	CMPQ  R13, R12 \
	JAE   done \
	IMULQ R11, R13 \
	VMOVSD (DX)(R10*8), X15 \
	VMULSD (R8)(R13*1), X15, X14 \
	VADDSD X14, X0, X0 \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop1 \
store1: \
	VADDSD (R9)(CX*1), X0, X0 \
	VMOVSD X0, (R9)(CX*1) \
	ADDQ  $8, CX \
	JMP   group \
done: \
	MOVQ  BX, next+152(FP) \
	VZEROUPPER \
	RET

// The index loads: a 32-bit load zero-extends into the full register, and
// so does a 16-bit zero-extending load into its 32-bit half.
#define LOADCOL32 MOVL (DI)(R10*4), R13
#define LOADCOL16 MOVWLZX (DI)(R10*2), R13

TEXT ·csrMultiRowsAVX32(SB), NOSPLIT, $0-160
	CSR_MULTI_ROWS(LOADCOL32)

TEXT ·csrMultiRowsAVX16(SB), NOSPLIT, $0-160
	CSR_MULTI_ROWS(LOADCOL16)

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
