package kernel

import (
	"fmt"

	"repro/internal/matrix"
)

// The tile body's routines (bcsrmulti_amd64.s), one per shape and index
// width, sweep whole block rows [lo, hi) and return the block row they
// stopped at: hi, or the first block row holding an index outside the
// matrix.

//go:noescape
func bcsr1x1AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr1x1AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr1x2AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr1x2AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr1x4AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr1x4AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr2x1AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr2x1AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr2x2AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr2x2AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr2x4AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr2x4AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr4x1AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr4x1AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr4x2AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr4x2AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr4x4AVX32(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) (next int)

//go:noescape
func bcsr4x4AVX16(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) (next int)

// The routines by shape: [R>>1][C>>1] maps the sides 1, 2, 4 to 0, 1, 2.
var (
	bcsrAVX32 = [3][3]func(rowPtr []int64, bcol []uint32, val, x, y []float64, nv, lo, hi, bcols int) int{
		{bcsr1x1AVX32, bcsr1x2AVX32, bcsr1x4AVX32},
		{bcsr2x1AVX32, bcsr2x2AVX32, bcsr2x4AVX32},
		{bcsr4x1AVX32, bcsr4x2AVX32, bcsr4x4AVX32},
	}
	bcsrAVX16 = [3][3]func(rowPtr []int64, bcol []uint16, val, x, y []float64, nv, lo, hi, bcols int) int{
		{bcsr1x1AVX16, bcsr1x2AVX16, bcsr1x4AVX16},
		{bcsr2x1AVX16, bcsr2x2AVX16, bcsr2x4AVX16},
		{bcsr4x1AVX16, bcsr4x2AVX16, bcsr4x4AVX16},
	}
)

// bcsrMultiRowsVec runs bcsrMultiRows' tile body and reports whether it
// did, by csrMultiRowsVec's rules: it declines, leaving y untouched, when an
// O(1) precondition the assembly relies on does not hold, and panics when
// the assembly meets a row pointer or tile column outside the matrix. The
// assembly sweeps the block rows that hold Shape.R rows, in chunks of
// vecChunkRows rows; a trailing shorter block row runs the Go body.
func bcsrMultiRowsVec[I matrix.Index](m *matrix.BCSR[I], nv int, y, x []float64, lo, hi int) bool {
	if bcsrWidth1[I](m.Shape) == nil || nv < 1 {
		return false
	}
	R, C := m.Shape.R, m.Shape.C
	bcols := (m.C + C - 1) / C
	full := fullBlockRows(m, lo, hi)
	if lo < 0 || lo > hi || hi >= len(m.RowPtr) || len(m.Val)/(R*C) < len(m.BCol) ||
		m.C < 0 || bcols > len(x)/nv/C || full > len(y)/nv/R {
		return false
	}
	for lo < full {
		end := min(full, lo+vecChunkRows/R)
		var next int
		switch col := any(m.BCol).(type) {
		case []uint32:
			next = bcsrAVX32[R>>1][C>>1](m.RowPtr, col, m.Val, x, y, nv, lo, end, bcols)
		case []uint16:
			next = bcsrAVX16[R>>1][C>>1](m.RowPtr, col, m.Val, x, y, nv, lo, end, bcols)
		default:
			return false // a named index type; the first chunk is the only one to get here
		}
		if next != end {
			panic(fmt.Sprintf("kernel: BCSR block row %d indexes outside its %d tiles or %d tile columns",
				next, len(m.BCol), bcols))
		}
		lo = end
	}
	bcsrMultiGo(m, nv, y, x, lo, hi)
	return true
}
