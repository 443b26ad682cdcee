package kernel

import (
	"fmt"

	"repro/internal/matrix"
)

// MultiVec is the multiple-vectors optimization (an OSKI capability, §2.1:
// "register- and cache-level blocking, exploiting symmetry, multiple
// vectors, ..."): multiplying k vectors in one sweep streams the matrix
// once instead of k times, multiplying the effective flop:byte ratio by
// nearly k. For bandwidth-bound SpMV this is the single most effective
// bandwidth-reduction transform available when the application has several
// right-hand sides (block Krylov methods, multiple-parameter studies).
type MultiVec struct {
	m  *matrix.CSR32
	nv int
}

// NewMultiVec wraps a CSR matrix for k-vector multiplication.
func NewMultiVec(m *matrix.CSR32, vectors int) (*MultiVec, error) {
	if vectors < 1 {
		return nil, fmt.Errorf("kernel: need at least 1 vector, got %d", vectors)
	}
	return &MultiVec{m: m, nv: vectors}, nil
}

// Vectors returns the vector-block width k.
func (mv *MultiVec) Vectors() int { return mv.nv }

// MulAdd computes Y ← Y + A·X where X and Y are column blocks stored
// row-major (interleaved: X[j*nv+v] is element j of vector v). The
// interleaved layout keeps each gather of x_j adjacent for all k vectors —
// one cache line serves k kernels, which is where the traffic saving comes
// from.
//
//spmv:deterministic
func (mv *MultiVec) MulAdd(y, x []float64) error {
	return mv.MulAddRows(y, x, 0, mv.m.R)
}

// MulAddRows computes the rows [lo, hi) of Y ← Y + A·X over the same
// interleaved block layout as MulAdd. Disjoint row ranges write disjoint
// regions of y, so concurrent calls over a row partition parallelize one
// fused sweep without synchronization.
//
//spmv:deterministic
func (mv *MultiVec) MulAddRows(y, x []float64, lo, hi int) error {
	m := mv.m
	nv := mv.nv
	if len(y) != m.R*nv || len(x) != m.C*nv {
		return fmt.Errorf("%w: matrix %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, m.R, m.C, nv, len(y), len(x))
	}
	if lo < 0 || hi > m.R || lo > hi {
		return fmt.Errorf("%w: rows [%d,%d) outside matrix with %d rows",
			matrix.ErrShape, lo, hi, m.R)
	}
	csrMultiRows(m, nv, y, x, lo, hi)
	return nil
}

// csrMultiRows is the one CSR multi-RHS loop nest: rows [lo, hi) of
// Y ← Y + A·X over interleaved width-nv blocks, at either index width.
// MultiVec, the CSR-backed Wide kernels and the scalar CSR kernel all run
// it, so they cannot differ in bits or in speed. Each lane sums its row's products in stored
// (ascending column) order into one accumulator and adds the sum into y
// once — the same per-lane operation order at every width, which is why
// lane v of a width-k sweep equals the width-1 sweep bit for bit. Each
// product is rounded to float64 before it is added (the explicit
// conversion forbids fusing it into a multiply-add on any architecture).
//
// Width 1 is one dependent add chain with nothing to vectorize and stays
// the Go loop. Wider blocks run the amd64 vector body when the CPU has AVX
// (csrmulti_amd64.s: the same operations in the same order, so the same
// bits); otherwise the Go bodies run, unrolled for widths 2, 4 and 8
// (mirroring the register-block code generation) with a generic loop for
// the rest. A row's values and columns are sliced once, so the compiler
// drops the per-nonzero bounds checks on both streams.
//
//spmv:deterministic
func csrMultiRows[I matrix.Index](m *matrix.CSR[I], nv int, y, x []float64, lo, hi int) {
	if nv == 1 {
		for i := lo; i < hi; i++ {
			k, end := m.RowPtr[i], m.RowPtr[i+1]
			val, col := m.Val[k:end], m.Col[k:end]
			sum := 0.0
			for n, v := range val {
				sum += float64(v * x[col[n]])
			}
			y[i] += sum
		}
		return
	}
	if vectorBody && csrMultiRowsVec(m, nv, y, x, lo, hi) {
		return
	}
	switch nv {
	case 2:
		for i := lo; i < hi; i++ {
			k, end := m.RowPtr[i], m.RowPtr[i+1]
			val, col := m.Val[k:end], m.Col[k:end]
			s0, s1 := 0.0, 0.0
			for n, v := range val {
				c := int(col[n]) * 2
				s0 += float64(v * x[c])
				s1 += float64(v * x[c+1])
			}
			y[i*2] += s0
			y[i*2+1] += s1
		}
	case 4:
		for i := lo; i < hi; i++ {
			k, end := m.RowPtr[i], m.RowPtr[i+1]
			val, col := m.Val[k:end], m.Col[k:end]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for n, v := range val {
				c := int(col[n]) * 4
				s0 += float64(v * x[c])
				s1 += float64(v * x[c+1])
				s2 += float64(v * x[c+2])
				s3 += float64(v * x[c+3])
			}
			y[i*4] += s0
			y[i*4+1] += s1
			y[i*4+2] += s2
			y[i*4+3] += s3
		}
	case 8:
		for i := lo; i < hi; i++ {
			k, end := m.RowPtr[i], m.RowPtr[i+1]
			val, col := m.Val[k:end], m.Col[k:end]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			s4, s5, s6, s7 := 0.0, 0.0, 0.0, 0.0
			for n, v := range val {
				c := int(col[n]) * 8
				s0 += float64(v * x[c])
				s1 += float64(v * x[c+1])
				s2 += float64(v * x[c+2])
				s3 += float64(v * x[c+3])
				s4 += float64(v * x[c+4])
				s5 += float64(v * x[c+5])
				s6 += float64(v * x[c+6])
				s7 += float64(v * x[c+7])
			}
			b := i * 8
			y[b] += s0
			y[b+1] += s1
			y[b+2] += s2
			y[b+3] += s3
			y[b+4] += s4
			y[b+5] += s5
			y[b+6] += s6
			y[b+7] += s7
		}
	default:
		sums := make([]float64, nv)
		for i := lo; i < hi; i++ {
			k, end := m.RowPtr[i], m.RowPtr[i+1]
			val, col := m.Val[k:end], m.Col[k:end]
			clear(sums)
			for n, v := range val {
				c := int(col[n]) * nv
				for l := range sums {
					sums[l] += float64(v * x[c+l])
				}
			}
			base := i * nv
			for l, s := range sums {
				y[base+l] += s
			}
		}
	}
}

// Interleave packs k column vectors into the row-major block layout
// MulAdd expects.
func Interleave(vectors [][]float64) ([]float64, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("kernel: no vectors")
	}
	n := len(vectors[0])
	for i, v := range vectors {
		if len(v) != n {
			return nil, fmt.Errorf("kernel: vector %d has length %d, want %d", i, len(v), n)
		}
	}
	nv := len(vectors)
	out := make([]float64, n*nv)
	for j := 0; j < n; j++ {
		for v := 0; v < nv; v++ {
			out[j*nv+v] = vectors[v][j]
		}
	}
	return out, nil
}

// Deinterleave unpacks the block layout back into k column vectors.
func Deinterleave(block []float64, nv int) ([][]float64, error) {
	if nv < 1 || len(block)%nv != 0 {
		return nil, fmt.Errorf("kernel: block length %d not divisible by %d vectors", len(block), nv)
	}
	n := len(block) / nv
	out := make([][]float64, nv)
	for v := range out {
		out[v] = make([]float64, n)
		for j := 0; j < n; j++ {
			out[v][j] = block[j*nv+v]
		}
	}
	return out, nil
}
