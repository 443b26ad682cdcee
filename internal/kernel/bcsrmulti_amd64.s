#include "textflag.h"

// The tile body of bcsrMultiRows (bcsr.go) for widths nv >= 2, one routine
// per tile shape R×C (R, C in {1, 2, 4}) and index width, all generated
// from BCSR_MULTI_ROWS:
//
//	func bcsrRxCAVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)
//	func bcsrRxCAVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)
//
// A routine sweeps the whole block rows [lo, hi). Tile row r of block row
// br is the CSR row br·R + r: values val[t·R·C + r·C + c] at columns
// bcol[t]·C + c, for the block row's tiles t in stored order and c = 0 ..
// C-1, which is ascending column order, fill included. As in
// csrmulti_amd64.s the lanes are split into groups of 8 (two YMM
// accumulators per tile row), 4 (one YMM), 2 (XMM) and 1 (scalar), and
// every group makes one pass over the block row's tiles: per tile column it
// loads the group's slice of x once and, for each tile row, broadcasts the
// value, multiplies it by that slice (VMULPD) and adds the product into the
// row's accumulators (VADDPD); after the pass it adds each row's sums into
// y once. The R rows are R independent add chains, and each row's products
// still reach its own accumulator one at a time in ascending column order,
// each rounded: csrMultiRows' operations on the same matrix, so its bits.
// There is no FMA instruction here (TestVectorBodyHasNoFMA).
//
// Every memory operand is in range, by a check here or a Go precondition
// (bcsrMultiRowsVec):
//
//	rowPtr[br], rowPtr[br+1]   lo <= br < hi < len(rowPtr)                     Go
//	bcol[t]                    rowPtr[br] <= t < rowPtr[br+1] (unsigned)       here, per block row
//	                           rowPtr[br+1] <= len(bcol) (unsigned)            here, per block row
//	val[t·R·C + r·C + c]       t < len(bcol), r < R, c < C,
//	                           len(bcol)·R·C <= len(val)                       Go
//	x[(bcol[t]·C + c)·nv + l]  bcol[t] < bcols                                 here, per tile
//	                           c < C, l < nv, bcols·C·nv <= len(x)             Go
//	y[(br·R + r)·nv + l]       br < hi, r < R, l < nv, hi·R·nv <= len(y)       Go
//
// A failed check stops before the load and returns the block row it was on
// (next < hi); a full sweep returns next == hi. Earlier block rows are
// already written, as the Go body's would be when its bounds check panics.
//
// Registers: SI rowPtr, DI bcol, DX val, R8 x + lane offset, R9
// &y[br·R·nv], R11 nv·8, BX br, AX rowPtr[br], R14 rowPtr[br+1], R10 t
// (a row's y address while storing), R12 t·R·C·8, R13 bcol[t]·C·nv·8 and
// then the tile column's x offset, CX lane offset in bytes. Tile row r
// accumulates in Y(2r) and Y(2r+1) (X(2r) is Y(2r)'s low half), Y11 and Y12
// hold the tile column's x lanes, Y13-Y15 are scratch.

// The index loads: a 32-bit load zero-extends into the full register, and
// so does a 16-bit zero-extending load into its 32-bit half.
#define LOADCOL32 MOVL (DI)(R10*4), R13
#define LOADCOL16 MOVWLZX (DI)(R10*2), R13

// One lane group's x lanes of the current tile column.
#define LOAD8 \
	VMOVUPD (R8)(R13*1), Y11 \
	VMOVUPD 32(R8)(R13*1), Y12
#define LOAD4 VMOVUPD (R8)(R13*1), Y11
#define LOAD2 VMOVUPD (R8)(R13*1), X11
#define LOAD1 VMOVSD (R8)(R13*1), X11

// One product of one lane group: the tile's value at byte OFF times the
// column's x lanes, added into the row's accumulators A and B (YMM) or XA
// (XMM).
#define STEP8(A, B, XA, OFF) \
	VBROADCASTSD OFF(DX)(R12*1), Y15 \
	VMULPD Y11, Y15, Y14 \
	VADDPD Y14, A, A \
	VMULPD Y12, Y15, Y13 \
	VADDPD Y13, B, B
#define STEP4(A, B, XA, OFF) \
	VBROADCASTSD OFF(DX)(R12*1), Y15 \
	VMULPD Y11, Y15, Y14 \
	VADDPD Y14, A, A
#define STEP2(A, B, XA, OFF) \
	VMOVDDUP OFF(DX)(R12*1), X15 \
	VMULPD X11, X15, X14 \
	VADDPD X14, XA, XA
#define STEP1(A, B, XA, OFF) \
	VMOVSD OFF(DX)(R12*1), X15 \
	VMULSD X11, X15, X14 \
	VADDSD X14, XA, XA

// One tile column: load its x lanes (L), then one step (S) per tile row,
// the value of row r at byte offset Or of the tile.
#define COL_R1(S, L, O0) \
	L \
	S(Y0, Y1, X0, O0)
#define COL_R2(S, L, O0, O1) \
	L \
	S(Y0, Y1, X0, O0) \
	S(Y2, Y3, X2, O1)
#define COL_R4(S, L, O0, O1, O2, O3) \
	L \
	S(Y0, Y1, X0, O0) \
	S(Y2, Y3, X2, O1) \
	S(Y4, Y5, X4, O2) \
	S(Y6, Y7, X6, O3)

// The next tile column's x lanes are nv·8 bytes further on.
#define NEXTCOL ADDQ R11, R13

// One tile, column by column: row r, column c is at byte (r·C + c)·8.
#define TILE_1x1(S, L) COL_R1(S, L, 0)
#define TILE_1x2(S, L) \
	COL_R1(S, L, 0) \
	NEXTCOL \
	COL_R1(S, L, 8)
#define TILE_1x4(S, L) \
	COL_R1(S, L, 0) \
	NEXTCOL \
	COL_R1(S, L, 8) \
	NEXTCOL \
	COL_R1(S, L, 16) \
	NEXTCOL \
	COL_R1(S, L, 24)
#define TILE_2x1(S, L) COL_R2(S, L, 0, 8)
#define TILE_2x2(S, L) \
	COL_R2(S, L, 0, 16) \
	NEXTCOL \
	COL_R2(S, L, 8, 24)
#define TILE_2x4(S, L) \
	COL_R2(S, L, 0, 32) \
	NEXTCOL \
	COL_R2(S, L, 8, 40) \
	NEXTCOL \
	COL_R2(S, L, 16, 48) \
	NEXTCOL \
	COL_R2(S, L, 24, 56)
#define TILE_4x1(S, L) COL_R4(S, L, 0, 8, 16, 24)
#define TILE_4x2(S, L) \
	COL_R4(S, L, 0, 16, 32, 48) \
	NEXTCOL \
	COL_R4(S, L, 8, 24, 40, 56)
#define TILE_4x4(S, L) \
	COL_R4(S, L, 0, 32, 64, 96) \
	NEXTCOL \
	COL_R4(S, L, 8, 40, 72, 104) \
	NEXTCOL \
	COL_R4(S, L, 16, 48, 80, 112) \
	NEXTCOL \
	COL_R4(S, L, 24, 56, 88, 120)

// y[row] += the row's sums, for one lane group of the row at address P.
#define ST8(A, B, XA, P) \
	VADDPD (P)(CX*1), A, A \
	VMOVUPD A, (P)(CX*1) \
	VADDPD 32(P)(CX*1), B, B \
	VMOVUPD B, 32(P)(CX*1)
#define ST4(A, B, XA, P) \
	VADDPD (P)(CX*1), A, A \
	VMOVUPD A, (P)(CX*1)
#define ST2(A, B, XA, P) \
	VADDPD (P)(CX*1), XA, XA \
	VMOVUPD XA, (P)(CX*1)
#define ST1(A, B, XA, P) \
	VADDSD (P)(CX*1), XA, XA \
	VMOVSD XA, (P)(CX*1)

// Every tile row of the block row, row r at R9 + r·nv·8.
#define STORE_R1(ST) ST(Y0, Y1, X0, R9)
#define STORE_R2(ST) \
	ST(Y0, Y1, X0, R9) \
	MOVQ R9, R10 \
	ADDQ R11, R10 \
	ST(Y2, Y3, X2, R10)
#define STORE_R4(ST) \
	STORE_R2(ST) \
	ADDQ R11, R10 \
	ST(Y4, Y5, X4, R10) \
	ADDQ R11, R10 \
	ST(Y6, Y7, X6, R10)

// Tile t's index, checked, and its x and value offsets: R13 =
// bcol[t]·C·nv·8, R12 = t·R·C·8 (C = 1<<CSHIFT, R·C·8 = 1<<TSHIFT).
#define TILE_START(LOADCOL, CSHIFT, TSHIFT) \
	LOADCOL \
	CMPQ  R13, bcols+144(FP) \
	JAE   done \
	IMULQ R11, R13 \
	SHLQ  $CSHIFT, R13 \
	MOVQ  R10, R12 \
	SHLQ  $TSHIFT, R12

// R = 1<<RSHIFT; TILE and STORE are the shape's and the row count's macros.
#define BCSR_MULTI_ROWS(LOADCOL, RSHIFT, CSHIFT, TSHIFT, TILE, STORE) \
	MOVQ  rowPtr_base+0(FP), SI \
	MOVQ  bcol_base+24(FP), DI \
	MOVQ  val_base+48(FP), DX \
	MOVQ  nv+120(FP), R11 \
	SHLQ  $3, R11 \
	MOVQ  lo+128(FP), BX \
	MOVQ  BX, R9 \
	IMULQ R11, R9 \
	SHLQ  $RSHIFT, R9 \
	ADDQ  y_base+96(FP), R9 \
block: \
	CMPQ  BX, hi+136(FP) \
	JGE   done \
	MOVQ  (SI)(BX*8), AX \
	MOVQ  8(SI)(BX*8), R14 \
	CMPQ  AX, R14 \
	JHI   done \
	CMPQ  R14, bcol_len+32(FP) \
	JHI   done \
	XORQ  CX, CX \
group: \
	MOVQ  x_base+72(FP), R8 \
	ADDQ  CX, R8 \
	MOVQ  AX, R10 \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4 \
	VXORPD Y5, Y5, Y5 \
	VXORPD Y6, Y6, Y6 \
	VXORPD Y7, Y7, Y7 \
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
	MOVQ  R11, R13 \
	SHLQ  $RSHIFT, R13 \
	ADDQ  R13, R9 \
	INCQ  BX \
	JMP   block \
lanes8: \
	CMPQ  R10, R14 \
	JAE   store8 \
	PCALIGN $32 \
loop8: \
	TILE_START(LOADCOL, CSHIFT, TSHIFT) \
	TILE(STEP8, LOAD8) \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop8 \
store8: \
	STORE(ST8) \
	ADDQ  $64, CX \
	JMP   group \
lanes4: \
	CMPQ  R10, R14 \
	JAE   store4 \
	PCALIGN $32 \
loop4: \
	TILE_START(LOADCOL, CSHIFT, TSHIFT) \
	TILE(STEP4, LOAD4) \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop4 \
store4: \
	STORE(ST4) \
	ADDQ  $32, CX \
	JMP   group \
lanes2: \
	CMPQ  R10, R14 \
	JAE   store2 \
loop2: \
	TILE_START(LOADCOL, CSHIFT, TSHIFT) \
	TILE(STEP2, LOAD2) \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop2 \
store2: \
	STORE(ST2) \
	ADDQ  $16, CX \
	JMP   group \
lanes1: \
	CMPQ  R10, R14 \
	JAE   store1 \
loop1: \
	TILE_START(LOADCOL, CSHIFT, TSHIFT) \
	TILE(STEP1, LOAD1) \
	INCQ  R10 \
	CMPQ  R10, R14 \
	JB    loop1 \
store1: \
	STORE(ST1) \
	ADDQ  $8, CX \
	JMP   group \
done: \
	MOVQ  BX, next+152(FP) \
	VZEROUPPER \
	RET

TEXT ·bcsr1x1AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 0, 0, 3, TILE_1x1, STORE_R1)

TEXT ·bcsr1x1AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 0, 0, 3, TILE_1x1, STORE_R1)

TEXT ·bcsr1x2AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 0, 1, 4, TILE_1x2, STORE_R1)

TEXT ·bcsr1x2AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 0, 1, 4, TILE_1x2, STORE_R1)

TEXT ·bcsr1x4AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 0, 2, 5, TILE_1x4, STORE_R1)

TEXT ·bcsr1x4AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 0, 2, 5, TILE_1x4, STORE_R1)

TEXT ·bcsr2x1AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 1, 0, 4, TILE_2x1, STORE_R2)

TEXT ·bcsr2x1AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 1, 0, 4, TILE_2x1, STORE_R2)

TEXT ·bcsr2x2AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 1, 1, 5, TILE_2x2, STORE_R2)

TEXT ·bcsr2x2AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 1, 1, 5, TILE_2x2, STORE_R2)

TEXT ·bcsr2x4AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 1, 2, 6, TILE_2x4, STORE_R2)

TEXT ·bcsr2x4AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 1, 2, 6, TILE_2x4, STORE_R2)

TEXT ·bcsr4x1AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 2, 0, 5, TILE_4x1, STORE_R4)

TEXT ·bcsr4x1AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 2, 0, 5, TILE_4x1, STORE_R4)

TEXT ·bcsr4x2AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 2, 1, 6, TILE_4x2, STORE_R4)

TEXT ·bcsr4x2AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 2, 1, 6, TILE_4x2, STORE_R4)

TEXT ·bcsr4x4AVX32(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL32, 2, 2, 7, TILE_4x4, STORE_R4)

TEXT ·bcsr4x4AVX16(SB), NOSPLIT, $0-160
	BCSR_MULTI_ROWS(LOADCOL16, 2, 2, 7, TILE_4x4, STORE_R4)
