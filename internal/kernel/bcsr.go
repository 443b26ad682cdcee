package kernel

import "repro/internal/matrix"

// The unrolled register-block bodies below are the Go equivalent of the
// paper's Perl-generated SpMV inner loops: one fully unrolled body per tile
// shape, with the tile rows' sums held in locals (registers) across the
// block row.
//
// Every BCSR body — the width-1 bodies here, the generic width-k body and
// the amd64 tile body (bcsrmulti_amd64.s) — obeys the CSR family's
// contract: each scalar row's products are rounded to float64 and added in
// ascending column order into one accumulator that starts at +0, fill
// included, and the sum is added into y once. Fill is an exact no-op for
// finite x: an accumulator that starts at +0 never becomes -0 under
// round-to-nearest (a sum is -0 only when both addends are), so adding a
// fill product ±0 leaves it unchanged. A BCSR sweep therefore returns
// csrMultiRows' bits on the same matrix, at every width. (A non-finite x
// turns a fill product into NaN, which then spreads across the tile row;
// the serving layer refuses such vectors.)
//
// A tile of r ≥ 2 rows gives r independent add chains, where a CSR row is
// one dependent chain: that, with one column index per tile, is why a
// width-1 sweep over tiles that fill beats CSR.

// bcsrColsPadded is the x length (per lane) a BCSR body reads: whole tile
// columns.
func bcsrColsPadded[I matrix.Index](m *matrix.BCSR[I]) int {
	return (m.C + m.Shape.C - 1) / m.Shape.C * m.Shape.C
}

// bcsrWidth1 returns the unrolled width-1 body of a tile shape, which sweeps
// full block rows [lo, hi), or nil when the shape is not one of the nine.
func bcsrWidth1[I matrix.Index](s matrix.BlockShape) func(m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	switch s {
	case matrix.BlockShape{R: 1, C: 1}:
		return bcsr1x1[I]
	case matrix.BlockShape{R: 1, C: 2}:
		return bcsr1x2[I]
	case matrix.BlockShape{R: 1, C: 4}:
		return bcsr1x4[I]
	case matrix.BlockShape{R: 2, C: 1}:
		return bcsr2x1[I]
	case matrix.BlockShape{R: 2, C: 2}:
		return bcsr2x2[I]
	case matrix.BlockShape{R: 2, C: 4}:
		return bcsr2x4[I]
	case matrix.BlockShape{R: 4, C: 1}:
		return bcsr4x1[I]
	case matrix.BlockShape{R: 4, C: 2}:
		return bcsr4x2[I]
	case matrix.BlockShape{R: 4, C: 4}:
		return bcsr4x4[I]
	}
	return nil
}

// bcsrMultiRows is the one BCSR multi-RHS loop nest: block rows [lo, hi)
// of Y ← Y + A·X over interleaved width-nv blocks, which writes y rows
// [lo·R, min(hi·R, m.R)). x holds whole tile columns (bcsrColsPadded(m)·nv
// values). Width 1 runs the shape's unrolled body; wider blocks run the
// amd64 tile body when the CPU has AVX, otherwise the generic Go body. The
// unrolled and tile bodies sweep only block rows that hold Shape.R rows; a
// trailing shorter one runs the generic body. All of them give
// csrMultiRows' bits on the same matrix (see the contract above).
//
//spmv:deterministic
func bcsrMultiRows[I matrix.Index](m *matrix.BCSR[I], nv int, y, x []float64, lo, hi int) {
	full := max(lo, min(hi, m.R/m.Shape.R)) // block rows [lo, full) hold Shape.R rows
	switch fn := bcsrWidth1[I](m.Shape); {
	case nv == 1 && fn != nil:
		fn(m, y, x, lo, full)
	case vectorBody && bcsrMultiRowsVec(m, nv, y, x, lo, full): // the tile body swept them
	default:
		full = lo
	}
	bcsrMultiGo(m, nv, y, x, full, hi)
}

// bcsrMultiGo is the generic body, for any shape and width: each scalar
// row of the block rows sums its lanes, at most eight at a time, into a
// stack accumulator in ascending column order.
//
//spmv:deterministic
func bcsrMultiGo[I matrix.Index](m *matrix.BCSR[I], nv int, y, x []float64, lo, hi int) {
	R, C := m.Shape.R, m.Shape.C
	rc := int64(R * C)
	var acc [8]float64
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*rc:t1*rc]
		for r := 0; r < R && br*R+r < m.R; r++ {
			yb := (br*R + r) * nv
			for g := 0; g < nv; g += len(acc) {
				sums := acc[:min(len(acc), nv-g)]
				clear(sums)
				for n, bc := range col {
					v0 := n*R*C + r*C
					xb := int(bc)*C*nv + g
					for c, v := range val[v0 : v0+C] {
						xs := x[xb+c*nv : xb+c*nv+len(sums)]
						for l := range sums {
							sums[l] += float64(v * xs[l])
						}
					}
				}
				for l, s := range sums {
					y[yb+g+l] += s
				}
			}
		}
	}
}

// Each width-1 body slices a block row's columns and values once, so the
// per-tile bounds checks are one per slice of x and of the tile.

func bcsr1x1[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0:t1]
		y0 := 0.0
		for n, bc := range col {
			y0 += float64(val[n] * x[bc])
		}
		y[br] += y0
	}
}

func bcsr1x2[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*2:t1*2]
		y0 := 0.0
		for n, bc := range col {
			c := int(bc) * 2
			xs := x[c : c+2 : c+2]
			v := val[n*2 : n*2+2 : n*2+2]
			y0 += float64(v[0] * xs[0])
			y0 += float64(v[1] * xs[1])
		}
		y[br] += y0
	}
}

func bcsr1x4[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*4:t1*4]
		y0 := 0.0
		for n, bc := range col {
			c := int(bc) * 4
			xs := x[c : c+4 : c+4]
			v := val[n*4 : n*4+4 : n*4+4]
			y0 += float64(v[0] * xs[0])
			y0 += float64(v[1] * xs[1])
			y0 += float64(v[2] * xs[2])
			y0 += float64(v[3] * xs[3])
		}
		y[br] += y0
	}
}

func bcsr2x1[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*2:t1*2]
		y0, y1 := 0.0, 0.0
		for n, bc := range col {
			xv := x[bc]
			v := val[n*2 : n*2+2 : n*2+2]
			y0 += float64(v[0] * xv)
			y1 += float64(v[1] * xv)
		}
		r := br * 2
		y[r] += y0
		y[r+1] += y1
	}
}

func bcsr2x2[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*4:t1*4]
		y0, y1 := 0.0, 0.0
		for n, bc := range col {
			c := int(bc) * 2
			xs := x[c : c+2 : c+2]
			v := val[n*4 : n*4+4 : n*4+4]
			y0 += float64(v[0] * xs[0])
			y1 += float64(v[2] * xs[0])
			y0 += float64(v[1] * xs[1])
			y1 += float64(v[3] * xs[1])
		}
		r := br * 2
		y[r] += y0
		y[r+1] += y1
	}
}

func bcsr2x4[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*8:t1*8]
		y0, y1 := 0.0, 0.0
		for n, bc := range col {
			c := int(bc) * 4
			xs := x[c : c+4 : c+4]
			v := val[n*8 : n*8+8 : n*8+8]
			y0 += float64(v[0] * xs[0])
			y1 += float64(v[4] * xs[0])
			y0 += float64(v[1] * xs[1])
			y1 += float64(v[5] * xs[1])
			y0 += float64(v[2] * xs[2])
			y1 += float64(v[6] * xs[2])
			y0 += float64(v[3] * xs[3])
			y1 += float64(v[7] * xs[3])
		}
		r := br * 2
		y[r] += y0
		y[r+1] += y1
	}
}

func bcsr4x1[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*4:t1*4]
		y0, y1, y2, y3 := 0.0, 0.0, 0.0, 0.0
		for n, bc := range col {
			xv := x[bc]
			v := val[n*4 : n*4+4 : n*4+4]
			y0 += float64(v[0] * xv)
			y1 += float64(v[1] * xv)
			y2 += float64(v[2] * xv)
			y3 += float64(v[3] * xv)
		}
		r := br * 4
		y[r] += y0
		y[r+1] += y1
		y[r+2] += y2
		y[r+3] += y3
	}
}

func bcsr4x2[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*8:t1*8]
		y0, y1, y2, y3 := 0.0, 0.0, 0.0, 0.0
		for n, bc := range col {
			c := int(bc) * 2
			xs := x[c : c+2 : c+2]
			v := val[n*8 : n*8+8 : n*8+8]
			y0 += float64(v[0] * xs[0])
			y1 += float64(v[2] * xs[0])
			y2 += float64(v[4] * xs[0])
			y3 += float64(v[6] * xs[0])
			y0 += float64(v[1] * xs[1])
			y1 += float64(v[3] * xs[1])
			y2 += float64(v[5] * xs[1])
			y3 += float64(v[7] * xs[1])
		}
		r := br * 4
		y[r] += y0
		y[r+1] += y1
		y[r+2] += y2
		y[r+3] += y3
	}
}

func bcsr4x4[I matrix.Index](m *matrix.BCSR[I], y, x []float64, lo, hi int) {
	for br := lo; br < hi; br++ {
		t0, t1 := m.RowPtr[br], m.RowPtr[br+1]
		col, val := m.BCol[t0:t1], m.Val[t0*16:t1*16]
		y0, y1, y2, y3 := 0.0, 0.0, 0.0, 0.0
		for n, bc := range col {
			c := int(bc) * 4
			xs := x[c : c+4 : c+4]
			v := val[n*16 : n*16+16 : n*16+16]
			y0 += float64(v[0] * xs[0])
			y1 += float64(v[4] * xs[0])
			y2 += float64(v[8] * xs[0])
			y3 += float64(v[12] * xs[0])
			y0 += float64(v[1] * xs[1])
			y1 += float64(v[5] * xs[1])
			y2 += float64(v[9] * xs[1])
			y3 += float64(v[13] * xs[1])
			y0 += float64(v[2] * xs[2])
			y1 += float64(v[6] * xs[2])
			y2 += float64(v[10] * xs[2])
			y3 += float64(v[14] * xs[2])
			y0 += float64(v[3] * xs[3])
			y1 += float64(v[7] * xs[3])
			y2 += float64(v[11] * xs[3])
			y3 += float64(v[15] * xs[3])
		}
		r := br * 4
		y[r] += y0
		y[r+1] += y1
		y[r+2] += y2
		y[r+3] += y3
	}
}
