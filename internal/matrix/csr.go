package matrix

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// CSR is compressed sparse row storage with a parameterized column-index
// width. RowPtr has Rows+1 entries; the nonzeros of row i occupy
// Col[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]], with column
// indices ascending within each row.
//
// The conventional ("naive") SpMV over this structure is a nested loop; the
// paper's first code optimization observes that because row i+1's data
// immediately follows row i's, the kernel can stream Col and Val with a
// single loop variable (see internal/kernel).
type CSR[I Index] struct {
	R, C   int
	RowPtr []int64
	Col    []I
	Val    []float64
}

// CSR32 and CSR16 are the two index widths the paper considers.
type (
	CSR32 = CSR[uint32]
	CSR16 = CSR[uint16]
)

// NewCSR builds a CSR matrix from a COO matrix, sorting entries into row
// then column order and summing duplicates. It returns ErrIndexOverflow if
// the column dimension does not fit the index type.
func NewCSR[I Index](m *COO) (*CSR[I], error) {
	if m.C > MaxIndex[I]()+1 {
		return nil, fmt.Errorf("%w: %d columns with %d-byte indices",
			ErrIndexOverflow, m.C, IndexBytes[I]())
	}
	n := len(m.Val)
	// Stable sort by (row, col): duplicate entries keep their insertion
	// order, so they are summed in a deterministic sequence. Any sub-matrix
	// that preserves insertion order (e.g. a shard coordinator's row bands)
	// then reproduces the full matrix's per-row accumulation bit for bit.
	// A counting sort buckets the entries by row in insertion order; a row
	// is then sorted by column, stably, only if it arrived out of order.
	start := make([]int, m.R+1)
	for _, r := range m.RowIdx {
		start[r+1]++
	}
	for i := 0; i < m.R; i++ {
		start[i+1] += start[i]
	}
	order := make([]int, n)
	next := slices.Clone(start[:m.R])
	for k, r := range m.RowIdx {
		order[next[r]] = k
		next[r]++
	}
	byCol := func(a, b int) int { return cmp.Compare(m.ColIdx[a], m.ColIdx[b]) }
	for i := 0; i < m.R; i++ {
		if row := order[start[i]:start[i+1]]; !slices.IsSortedFunc(row, byCol) {
			slices.SortStableFunc(row, byCol)
		}
	}

	out := &CSR[I]{
		R:      m.R,
		C:      m.C,
		RowPtr: make([]int64, m.R+1),
		Col:    make([]I, 0, n),
		Val:    make([]float64, 0, n),
	}
	prevRow, prevCol := int32(-1), int32(-1)
	for _, k := range order {
		r, c, v := m.RowIdx[k], m.ColIdx[k], m.Val[k]
		if r == prevRow && c == prevCol {
			out.Val[len(out.Val)-1] += v // sum duplicates
			continue
		}
		out.Col = append(out.Col, I(c))
		out.Val = append(out.Val, v)
		out.RowPtr[r+1]++
		prevRow, prevCol = r, c
	}
	for i := 0; i < m.R; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out, nil
}

// NarrowCSR returns src with 16-bit column indices: what
// NewCSR[uint16](src.ToCOO()) builds, without the COO round trip and row
// sort. It returns ErrIndexOverflow when src has more than 65 536 columns.
// Col is converted element-wise; RowPtr and Val are shared with src, not
// copied. Sharing is safe because no encoding is written after its
// constructor returns — the same reason the tuner may serve a CSR32
// source as its own encoding.
func NarrowCSR(src *CSR32) (*CSR16, error) {
	if src.C > MaxIndex[uint16]()+1 {
		return nil, fmt.Errorf("%w: %d columns with %d-byte indices",
			ErrIndexOverflow, src.C, IndexBytes[uint16]())
	}
	col := make([]uint16, len(src.Col))
	for k, c := range src.Col {
		col[k] = uint16(c)
	}
	return &CSR16{R: src.R, C: src.C, RowPtr: src.RowPtr, Col: col, Val: src.Val}, nil
}

// Dims implements Format.
func (m *CSR[I]) Dims() (int, int) { return m.R, m.C }

// NNZ implements Format. CSR stores no explicit fill, so NNZ == Stored.
func (m *CSR[I]) NNZ() int64 { return int64(len(m.Val)) }

// Stored implements Format.
func (m *CSR[I]) Stored() int64 { return int64(len(m.Val)) }

// FootprintBytes implements Format: values + column indices + row pointers.
func (m *CSR[I]) FootprintBytes() int64 {
	return int64(len(m.Val))*8 +
		int64(len(m.Col))*IndexBytes[I]() +
		int64(len(m.RowPtr))*8
}

// FormatName implements Format.
func (m *CSR[I]) FormatName() string {
	return fmt.Sprintf("CSR%d", 8*IndexBytes[I]())
}

// ToCOO converts back to coordinate form (entries emitted in row-major
// order, so a round trip through NewCSR is canonicalizing).
func (m *CSR[I]) ToCOO() *COO {
	out := NewCOO(m.R, m.C)
	out.RowIdx = make([]int32, 0, len(m.Val))
	out.ColIdx = make([]int32, 0, len(m.Val))
	out.Val = make([]float64, 0, len(m.Val))
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.RowIdx = append(out.RowIdx, int32(i))
			out.ColIdx = append(out.ColIdx, int32(m.Col[k]))
			out.Val = append(out.Val, m.Val[k])
		}
	}
	return out
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR[I]) RowNNZ(i int) int64 { return m.RowPtr[i+1] - m.RowPtr[i] }

// Validate checks the structural invariants of the CSR encoding: monotone
// row pointers, in-range ascending column indices per row.
func (m *CSR[I]) Validate() error {
	if len(m.RowPtr) != m.R+1 {
		return fmt.Errorf("matrix: CSR rowptr length %d, want %d", len(m.RowPtr), m.R+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: CSR rowptr[0]=%d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.R] != int64(len(m.Val)) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("matrix: CSR rowptr end %d, col %d, val %d inconsistent",
			m.RowPtr[m.R], len(m.Col), len(m.Val))
	}
	for i := 0; i < m.R; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("matrix: CSR rowptr not monotone at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if int(m.Col[k]) >= m.C {
				return fmt.Errorf("matrix: CSR col %d out of range in row %d", m.Col[k], i)
			}
			if k > m.RowPtr[i] && m.Col[k] <= m.Col[k-1] {
				return fmt.Errorf("matrix: CSR columns not strictly ascending in row %d", i)
			}
		}
	}
	return nil
}

// SubmatrixCOO extracts the block [r0,r1)×[c0,c1) as a COO matrix whose
// indices are rebased to the block origin. It is the primitive cache and
// TLB blocking are built from.
func (m *CSR[I]) SubmatrixCOO(r0, r1, c0, c1 int) *COO {
	out := NewCOO(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		// Binary search the column range within the sorted row.
		start := lo + int64(sort.Search(int(hi-lo), func(k int) bool {
			return int(m.Col[lo+int64(k)]) >= c0
		}))
		for k := start; k < hi && int(m.Col[k]) < c1; k++ {
			out.RowIdx = append(out.RowIdx, int32(i-r0))
			out.ColIdx = append(out.ColIdx, int32(int(m.Col[k])-c0))
			out.Val = append(out.Val, m.Val[k])
		}
	}
	return out
}
