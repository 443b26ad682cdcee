package kernel

import (
	"fmt"

	"repro/internal/matrix"
)

// compileCSR builds one of the three §4.1 CSR kernel variants. SingleLoop
// is the CSR family's width-1 wide kernel — the width-1 loop of
// csrMultiRows; Naive and Branchless are width-1-only study engines.
func compileCSR[I matrix.Index](m *matrix.CSR[I], v Variant) Kernel {
	var eng wideEngine
	switch v {
	case Naive:
		eng = &naiveCSREngine[I]{m}
	case Branchless:
		eng = &branchlessCSREngine[I]{m}
	default:
		v, eng = SingleLoop, &wideCSR[I]{m: m, nv: 1}
	}
	return newWideSerial(eng, m, 1, fmt.Sprintf("csr%d/%s", 8*matrix.IndexBytes[I](), v))
}

// naiveCSREngine is the conventional nested-loop CSR SpMV: per row, reload
// the row bounds and accumulate directly into y[i]. This is the baseline
// every optimization in the paper is measured against.
type naiveCSREngine[I matrix.Index] struct{ m *matrix.CSR[I] }

func (e *naiveCSREngine[I]) run(y, x []float64) {
	m := e.m
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			y[i] += float64(m.Val[k] * x[m.Col[k]])
		}
	}
}

func (e *naiveCSREngine[I]) rPad() int { return e.m.R }
func (e *naiveCSREngine[I]) cPad() int { return e.m.C }

// branchlessCSREngine is the segmented-scan-of-vector-length-one
// formulation [Blelloch et al. 93]: one flat pass over the nonzeros with
// row advancement folded in, removing the per-row inner-loop setup that
// penalizes matrices with very few nonzeros per row. Go has no cmov
// intrinsic, so the row-advance remains a (highly predictable) compare; the
// microarchitectural benefit on in-order cores is captured by the platform
// model.
type branchlessCSREngine[I matrix.Index] struct{ m *matrix.CSR[I] }

func (e *branchlessCSREngine[I]) run(y, x []float64) {
	m := e.m
	if len(m.Val) == 0 {
		return
	}
	row := 0
	end := m.RowPtr[1]
	sum := 0.0
	for k := int64(0); k < int64(len(m.Val)); k++ {
		for k == end { // advance over (possibly empty) row boundaries
			y[row] += sum
			sum = 0
			row++
			end = m.RowPtr[row+1]
		}
		sum += float64(m.Val[k] * x[m.Col[k]])
	}
	y[row] += sum // flush the final segment
}

func (e *branchlessCSREngine[I]) rPad() int { return e.m.R }
func (e *branchlessCSREngine[I]) cPad() int { return e.m.C }
