package matrix

import "fmt"

// SymCSR stores a structurally and numerically symmetric matrix by its
// upper triangle only (diagonal included), halving the nonzero storage.
// Exploiting symmetry is one of the bandwidth-reduction optimizations the
// paper's conclusions recommend as core counts grow ("software designers
// should consider bandwidth reduction as a key algorithmic optimization
// (e.g., symmetry, ...)", §7); OSKI implements it, and the study
// deliberately does not ("we do not exploit symmetry in our experiments"),
// so this format is an extension reproduced for completeness rather than
// part of the Figure 1 pipeline.
type SymCSR struct {
	N      int // square dimension
	RowPtr []int64
	Col    []uint32 // column indices >= row index
	Val    []float64
	nnz    int64 // logical nonzeros of the full matrix
}

// NewSymCSR builds symmetric storage from a COO matrix: it canonicalizes
// the entries (sorted, duplicates summed) and stores the upper triangle of
// the result (see SymFromCSR).
func NewSymCSR(m *COO) (*SymCSR, error) {
	if m.R != m.C {
		return nil, fmt.Errorf("matrix: symmetric storage needs a square matrix, got %dx%d", m.R, m.C)
	}
	full, err := NewCSR[uint32](m)
	if err != nil {
		return nil, err
	}
	return SymFromCSR(full)
}

// SymFromCSR stores the upper triangle (diagonal included) of a canonical
// CSR matrix, as NewCSR builds it. It fails unless the matrix IsSymmetric.
func SymFromCSR(full *CSR32) (*SymCSR, error) {
	if full.R != full.C {
		return nil, fmt.Errorf("matrix: symmetric storage needs a square matrix, got %dx%d", full.R, full.C)
	}
	if !full.IsSymmetric() {
		return nil, fmt.Errorf("matrix: %dx%d matrix is not numerically symmetric", full.R, full.C)
	}
	// The upper triangle holds (nnz+d)/2 entries for d diagonal entries.
	upper := (len(full.Val) + full.R) / 2
	out := &SymCSR{N: full.R, RowPtr: make([]int64, full.R+1),
		Col: make([]uint32, 0, upper), Val: make([]float64, 0, upper)}
	for i := 0; i < full.R; i++ {
		for k := full.RowPtr[i]; k < full.RowPtr[i+1]; k++ {
			j := int(full.Col[k])
			if j < i {
				continue
			}
			if j > i {
				out.nnz += 2
			} else {
				out.nnz++
			}
			out.Col = append(out.Col, uint32(j))
			out.Val = append(out.Val, full.Val[k])
		}
		out.RowPtr[i+1] = int64(len(out.Val))
	}
	return out, nil
}

// IsSymmetric reports whether a canonical CSR matrix (columns ascending
// within each row, no duplicates, as NewCSR builds it) equals its
// transpose: it is square, and wherever an off-diagonal (i,j) is stored,
// (j,i) is stored too with a value that compares equal (== on float64, so
// −0 matches +0 and NaN matches nothing). A diagonal entry is its own
// mirror. One pass in row order that stops at the first mismatch: row
// j's strictly-upper entries are met in ascending column order as the rows
// they mirror into are scanned, so a cursor per row marks the next upper
// entry still owed its mirror, and every cursor must reach its row's end.
func (m *CSR[I]) IsSymmetric() bool {
	if m.R != m.C {
		return false
	}
	next := make([]int64, m.R)
	for i := 0; i < m.R; i++ {
		k, end := m.RowPtr[i], m.RowPtr[i+1]
		for ; k < end && int(m.Col[k]) < i; k++ {
			j := m.Col[k]
			p := next[j]
			if p == m.RowPtr[j+1] || int(m.Col[p]) != i || m.Val[p] != m.Val[k] {
				return false
			}
			next[j] = p + 1
		}
		if k < end && int(m.Col[k]) == i {
			k++
		}
		next[i] = k
	}
	for j, p := range next {
		if p != m.RowPtr[j+1] {
			return false
		}
	}
	return true
}

// Dims implements Format.
func (m *SymCSR) Dims() (int, int) { return m.N, m.N }

// NNZ implements Format: logical nonzeros of the full (mirrored) matrix.
func (m *SymCSR) NNZ() int64 { return m.nnz }

// Stored implements Format: upper-triangle entries actually stored.
func (m *SymCSR) Stored() int64 { return int64(len(m.Val)) }

// FootprintBytes implements Format.
func (m *SymCSR) FootprintBytes() int64 {
	return int64(len(m.Val))*8 + int64(len(m.Col))*4 + int64(len(m.RowPtr))*8
}

// FormatName implements Format.
func (m *SymCSR) FormatName() string { return "SymCSR" }

// MulAdd computes y ← y + A·x using each stored entry twice (the
// symmetric kernel: one load of a_ij drives both y_i += a·x_j and
// y_j += a·x_i), which is exactly the bandwidth saving of the format.
func (m *SymCSR) MulAdd(y, x []float64) error {
	if err := checkMulShapes(m.N, m.N, y, x); err != nil {
		return err
	}
	for i := 0; i < m.N; i++ {
		xi := x[i]
		sum := 0.0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.Col[k])
			v := m.Val[k]
			sum += v * x[j]
			if j != i {
				y[j] += v * xi
			}
		}
		y[i] += sum
	}
	return nil
}

// ToCOO expands back to full (mirrored) coordinate storage.
func (m *SymCSR) ToCOO() *COO {
	out := NewCOO(m.N, m.N)
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.Col[k])
			out.RowIdx = append(out.RowIdx, int32(i))
			out.ColIdx = append(out.ColIdx, int32(j))
			out.Val = append(out.Val, m.Val[k])
			if j != i {
				out.RowIdx = append(out.RowIdx, int32(j))
				out.ColIdx = append(out.ColIdx, int32(i))
				out.Val = append(out.Val, m.Val[k])
			}
		}
	}
	return out
}
