package kernel

import (
	"fmt"

	"repro/internal/matrix"
)

// vectorBody reports whether csrMultiRows runs its AVX body at widths
// >= 2: the CPU has AVX and the OS saves YMM state. It is read once; tests
// clear it to run the Go bodies.
var vectorBody = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28 // CPUID.1:ECX
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&6 == 6 // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
}

func cpuid1ECX() uint32

func xgetbv0() uint32

// The assembly routines (csrmulti_amd64.s) sweep rows [lo, hi) and return
// the row they stopped at: hi, or the first row holding an index outside
// the matrix.

//go:noescape
func csrMultiRowsAVX32(rowPtr []int64, col []uint32, val, x, y []float64, nv, lo, hi, cols int) (next int)

//go:noescape
func csrMultiRowsAVX16(rowPtr []int64, col []uint16, val, x, y []float64, nv, lo, hi, cols int) (next int)

// vecChunkRows bounds one assembly call. A goroutine cannot be preempted
// inside assembly, so a whole-matrix sweep (milliseconds) is cut into
// chunks to keep the scheduler and the GC's stop-the-world waits short.
const vecChunkRows = 4096

// csrMultiRowsVec runs csrMultiRows' vector body and reports whether it
// did. It declines, leaving y untouched, when the O(1) preconditions the
// assembly relies on do not hold — the Go body then runs and fails or not
// exactly as it always has — and panics when the assembly meets a row
// pointer or column index outside the matrix, where the Go body's bounds
// check would have panicked.
func csrMultiRowsVec[I matrix.Index](m *matrix.CSR[I], nv int, y, x []float64, lo, hi int) bool {
	if lo < 0 || lo > hi || hi >= len(m.RowPtr) || len(m.Col) != len(m.Val) ||
		m.C < 0 || m.C > len(x)/nv || hi > len(y)/nv {
		return false
	}
	for lo < hi {
		end := min(hi, lo+vecChunkRows)
		var next int
		switch col := any(m.Col).(type) {
		case []uint32:
			next = csrMultiRowsAVX32(m.RowPtr, col, m.Val, x, y, nv, lo, end, m.C)
		case []uint16:
			next = csrMultiRowsAVX16(m.RowPtr, col, m.Val, x, y, nv, lo, end, m.C)
		default:
			return false // a named index type; the first chunk is the only one to get here
		}
		if next != end {
			panic(fmt.Sprintf("kernel: CSR row %d indexes outside its %d stored values or %d columns",
				next, len(m.Val), m.C))
		}
		lo = end
	}
	return true
}
