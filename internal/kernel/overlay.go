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
// this dot product for the dirty row (csrMultiRows accumulates per lane in
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
	default:
		// Wider blocks: per-lane accumulators in ascending column order,
		// at most eight lanes at a time in a stack accumulator — the
		// width-1 case's per-lane summation order (lanes are independent,
		// so lane order is immaterial to the bits). Only dirty rows run
		// here, so no width has an unrolled body of its own.
		var acc [8]float64
		for _, row := range rows {
			i := int(row.Index)
			if i >= yRows {
				return overlayRange(i, yRows)
			}
			for g := 0; g < nv; g += len(acc) {
				sums := acc[:min(len(acc), nv-g)]
				clear(sums)
				for k, col := range row.Col {
					if int(col) >= xCols {
						return overlayRange(int(col), xCols)
					}
					v := row.Val[k]
					c := int(col)*nv + g
					for lane, xv := range x[c : c+len(sums)] {
						sums[lane] += float64(v * xv)
					}
				}
				copy(y[i*nv+g:], sums)
			}
		}
	}
	return nil
}

func overlayRange(i, n int) error {
	return fmt.Errorf("%w: overlay index %d outside block with %d slots", matrix.ErrShape, i, n)
}
