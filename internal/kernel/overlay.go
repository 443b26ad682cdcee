package kernel

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/matrix/delta"
)

// OverlayRows applies a delta overlay to an interleaved multi-RHS
// destination block after the base-operator pass: each dirty row's slots
// are OVERWRITTEN with a dot product over the row's canonical merged
// content (ascending columns, fresh per-lane accumulators), replacing the
// base operator's contribution for that row entirely.
//
// Overwriting — rather than adding a correction term — is what makes the
// result bitwise identical to a from-scratch rebuild of the mutated
// matrix on the CSR-family paths: the rebuilt kernel computes exactly
// this dot product for the dirty row (MultiVec accumulates per lane in
// column order from zero), and every clean row's result is independent of
// other rows, so the base pass already produced the rebuilt bits there.
// The same overwrite is value-correct over ANY base operator family
// (blocked, wide, symmetric): the base pass computes the unmutated
// matrix's full product, and mutations only change the dirty rows'
// logical content.
//
// Rows are independent, so application order across rows cannot affect
// results; within a row the ascending-column scan pins the summation
// order. nv is the interleaved block width: y[i*nv+v] is element i of
// vector v.
//
//spmv:deterministic
func OverlayRows(y, x []float64, nv int, rows []delta.Row) error {
	if nv < 1 {
		return fmt.Errorf("kernel: overlay needs at least 1 vector, got %d", nv)
	}
	if len(y)%nv != 0 || len(x)%nv != 0 {
		return fmt.Errorf("kernel: overlay blocks not a multiple of width %d: len(y)=%d len(x)=%d",
			nv, len(y), len(x))
	}
	yRows := len(y) / nv
	xCols := len(x) / nv
	switch nv {
	case 1:
		for _, row := range rows {
			i := int(row.Index)
			if i >= yRows {
				return overlayRange(i, yRows)
			}
			sum := 0.0
			for k, c := range row.Col {
				if int(c) >= xCols {
					return overlayRange(int(c), xCols)
				}
				sum += float64(row.Val[k] * x[c])
			}
			y[i] = sum
		}
	case 4:
		for _, row := range rows {
			i := int(row.Index)
			if i >= yRows {
				return overlayRange(i, yRows)
			}
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for k, col := range row.Col {
				if int(col) >= xCols {
					return overlayRange(int(col), xCols)
				}
				v := row.Val[k]
				c := int(col) * 4
				s0 += float64(v * x[c])
				s1 += float64(v * x[c+1])
				s2 += float64(v * x[c+2])
				s3 += float64(v * x[c+3])
			}
			b := i * 4
			y[b] = s0
			y[b+1] = s1
			y[b+2] = s2
			y[b+3] = s3
		}
	default:
		// Generic width: per-lane accumulators in ascending column order,
		// the same per-lane summation order as every unrolled case (lanes
		// are independent, so lane order is immaterial to the bits).
		sums := make([]float64, nv)
		for _, row := range rows {
			i := int(row.Index)
			if i >= yRows {
				return overlayRange(i, yRows)
			}
			clear(sums)
			for k, col := range row.Col {
				if int(col) >= xCols {
					return overlayRange(int(col), xCols)
				}
				v := row.Val[k]
				c := int(col) * nv
				for lane := 0; lane < nv; lane++ {
					sums[lane] += float64(v * x[c+lane])
				}
			}
			b := i * nv
			for lane := 0; lane < nv; lane++ {
				y[b+lane] = sums[lane]
			}
		}
	}
	return nil
}

func overlayRange(i, n int) error {
	return fmt.Errorf("%w: overlay index %d outside block with %d slots", matrix.ErrShape, i, n)
}
