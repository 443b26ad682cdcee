package kernel

import "repro/internal/matrix"

// The BCOO kernels have no row loop at all: a single flat pass over the
// tiles, with both coordinates loaded per tile. The paper chooses this
// format when empty rows would make CSR row pointers waste storage and
// zero-trip loop iterations.
//
// Every BCOO body — the nine unrolled width-1 bodies and the generic
// width-k body — sums each tile row's rounded products (float64(v*x)) in
// ascending column order, starting from the first product, and adds that
// sum into y once. Lane v of a width-k sweep therefore equals the width-1
// sweep bit for bit. Across tiles the adds into one y row follow tile
// order, so BCOO reassociates a row's sum relative to CSR and matches it
// only to rounding.

// bcooMulti is the one BCOO multi-RHS loop nest: Y ← Y + A·X over
// interleaved width-nv blocks padded to whole tiles. Width 1 runs the
// shape's unrolled body; wider blocks, and shapes without one, run the
// generic body.
//
//spmv:deterministic
func bcooMulti[I matrix.Index](m *matrix.BCOO[I], nv int, y, x []float64) {
	if nv == 1 {
		if fn := bcooWidth1[I](m.Shape); fn != nil {
			fn(m, y, x)
			return
		}
	}
	bcooMultiGo(m, nv, y, x)
}

// bcooMultiGo is the generic body, for any shape and width: each tile row
// sums its lanes, at most eight at a time, into a stack accumulator.
//
//spmv:deterministic
func bcooMultiGo[I matrix.Index](m *matrix.BCOO[I], nv int, y, x []float64) {
	R, C := m.Shape.R, m.Shape.C
	var acc [8]float64
	for t := range m.BCol {
		r0 := int(m.BRow[t]) * R
		c0 := int(m.BCol[t]) * C * nv
		tile := m.Val[t*R*C : (t+1)*R*C]
		for r := 0; r < R; r++ {
			row := tile[r*C : r*C+C]
			yb := (r0 + r) * nv
			for g := 0; g < nv; g += len(acc) {
				sums := acc[:min(len(acc), nv-g)]
				xs := x[c0+g : c0+g+len(sums)]
				for l := range sums {
					sums[l] = float64(row[0] * xs[l])
				}
				for c := 1; c < C; c++ {
					xs := x[c0+c*nv+g : c0+c*nv+g+len(sums)]
					for l := range sums {
						sums[l] += float64(row[c] * xs[l])
					}
				}
				ys := y[yb+g : yb+g+len(sums)]
				for l, s := range sums {
					ys[l] += s
				}
			}
		}
	}
}

// bcooWidth1 returns the unrolled width-1 body of a tile shape, or nil
// when the shape is not one of the nine.
func bcooWidth1[I matrix.Index](s matrix.BlockShape) func(*matrix.BCOO[I], []float64, []float64) {
	switch s {
	case matrix.BlockShape{R: 1, C: 1}:
		return bcoo1x1[I]
	case matrix.BlockShape{R: 1, C: 2}:
		return bcoo1x2[I]
	case matrix.BlockShape{R: 1, C: 4}:
		return bcoo1x4[I]
	case matrix.BlockShape{R: 2, C: 1}:
		return bcoo2x1[I]
	case matrix.BlockShape{R: 2, C: 2}:
		return bcoo2x2[I]
	case matrix.BlockShape{R: 2, C: 4}:
		return bcoo2x4[I]
	case matrix.BlockShape{R: 4, C: 1}:
		return bcoo4x1[I]
	case matrix.BlockShape{R: 4, C: 2}:
		return bcoo4x2[I]
	case matrix.BlockShape{R: 4, C: 4}:
		return bcoo4x4[I]
	}
	return nil
}

func bcoo1x1[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		y[brow[t]] += float64(val[t] * x[bcol[t]])
	}
}

func bcoo1x2[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		c := int(bcol[t]) * 2
		v := t * 2
		y[brow[t]] += float64(val[v]*x[c]) + float64(val[v+1]*x[c+1])
	}
}

func bcoo1x4[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		c := int(bcol[t]) * 4
		v := t * 4
		y[brow[t]] += float64(val[v]*x[c]) + float64(val[v+1]*x[c+1]) + float64(val[v+2]*x[c+2]) + float64(val[v+3]*x[c+3])
	}
}

func bcoo2x1[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		r := int(brow[t]) * 2
		xv := x[bcol[t]]
		v := t * 2
		y[r] += float64(val[v] * xv)
		y[r+1] += float64(val[v+1] * xv)
	}
}

func bcoo2x2[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		r := int(brow[t]) * 2
		c := int(bcol[t]) * 2
		x0, x1 := x[c], x[c+1]
		v := t * 4
		y[r] += float64(val[v]*x0) + float64(val[v+1]*x1)
		y[r+1] += float64(val[v+2]*x0) + float64(val[v+3]*x1)
	}
}

func bcoo2x4[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		r := int(brow[t]) * 2
		c := int(bcol[t]) * 4
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		v := t * 8
		y[r] += float64(val[v]*x0) + float64(val[v+1]*x1) + float64(val[v+2]*x2) + float64(val[v+3]*x3)
		y[r+1] += float64(val[v+4]*x0) + float64(val[v+5]*x1) + float64(val[v+6]*x2) + float64(val[v+7]*x3)
	}
}

func bcoo4x1[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		r := int(brow[t]) * 4
		xv := x[bcol[t]]
		v := t * 4
		y[r] += float64(val[v] * xv)
		y[r+1] += float64(val[v+1] * xv)
		y[r+2] += float64(val[v+2] * xv)
		y[r+3] += float64(val[v+3] * xv)
	}
}

func bcoo4x2[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		r := int(brow[t]) * 4
		c := int(bcol[t]) * 2
		x0, x1 := x[c], x[c+1]
		v := t * 8
		y[r] += float64(val[v]*x0) + float64(val[v+1]*x1)
		y[r+1] += float64(val[v+2]*x0) + float64(val[v+3]*x1)
		y[r+2] += float64(val[v+4]*x0) + float64(val[v+5]*x1)
		y[r+3] += float64(val[v+6]*x0) + float64(val[v+7]*x1)
	}
}

func bcoo4x4[I matrix.Index](m *matrix.BCOO[I], y, x []float64) {
	val, brow, bcol := m.Val, m.BRow, m.BCol
	for t := range bcol {
		r := int(brow[t]) * 4
		c := int(bcol[t]) * 4
		x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
		v := t * 16
		y[r] += float64(val[v]*x0) + float64(val[v+1]*x1) + float64(val[v+2]*x2) + float64(val[v+3]*x3)
		y[r+1] += float64(val[v+4]*x0) + float64(val[v+5]*x1) + float64(val[v+6]*x2) + float64(val[v+7]*x3)
		y[r+2] += float64(val[v+8]*x0) + float64(val[v+9]*x1) + float64(val[v+10]*x2) + float64(val[v+11]*x3)
		y[r+3] += float64(val[v+12]*x0) + float64(val[v+13]*x1) + float64(val[v+14]*x2) + float64(val[v+15]*x3)
	}
}
