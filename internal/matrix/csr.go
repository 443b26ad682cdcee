package matrix

import (
	"fmt"
	"math"
	"math/bits"
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
// the column dimension does not fit the index type, or if the matrix holds
// 2^32 entries or more.
//
// The order is the stable (row, col) permutation: duplicate entries keep
// their insertion order, so they are summed in a deterministic sequence.
// Any sub-matrix that preserves insertion order (e.g. a shard
// coordinator's row bands) then reproduces the full matrix's per-row
// accumulation bit for bit. Every step is an integer-key pass: one pass
// counts the rows and finds the rows whose columns arrive out of order,
// and only those rows are then sorted, each by (column, arrival) keys.
func NewCSR[I Index](m *COO) (*CSR[I], error) {
	if m.C > MaxIndex[I]()+1 {
		return nil, fmt.Errorf("%w: %d columns with %d-byte indices",
			ErrIndexOverflow, m.C, IndexBytes[I]())
	}
	n := len(m.Val)
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d entries", ErrIndexOverflow, n)
	}
	// last[r] is one more than the last column row r received, or
	// unsortedRow once a column arrived below it.
	rowPtr := make([]int64, m.R+1)
	last := make([]uint32, m.R)
	adjacentDup := false
	for k, r := range m.RowIdx {
		rowPtr[r+1]++
		switch c, p := uint32(m.ColIdx[k])+1, last[r]; {
		case c > p:
			last[r] = c
		case c == p:
			adjacentDup = true
		default:
			last[r] = unsortedRow
		}
	}
	for r := 0; r < m.R; r++ {
		rowPtr[r+1] += rowPtr[r]
	}

	out := &CSR[I]{R: m.R, C: m.C, RowPtr: rowPtr, Col: make([]I, n), Val: make([]float64, n)}
	if out.fillByRow(m, last) || adjacentDup {
		out.sumDuplicates()
	}
	return out, nil
}

// NewCSR's row marks: a row whose columns arrived out of order.
const unsortedRow = math.MaxUint32

// radixMinRow is the shortest unsorted row fillByRow orders by radix
// passes; a shorter row is sorted by (column, arrival) keys, which there
// costs less than the passes' digit counts.
const radixMinRow = 256

// fillByRow places m's entries row by row in arrival order, then orders
// each row last marks out of order by column, stably: equal columns keep
// their arrival order. It reports whether a sorted row holds a duplicate
// column.
func (out *CSR[I]) fillByRow(m *COO, last []uint32) bool {
	next := out.RowPtr[:m.R]
	for k, r := range m.RowIdx {
		p := next[r]
		out.Col[p] = I(m.ColIdx[k])
		out.Val[p] = m.Val[k]
		next[r] = p + 1
	}
	// next[r] now holds row r's end, the start of row r+1.
	copy(out.RowPtr[1:], next)
	out.RowPtr[0] = 0

	dup := false
	var s rowSorter[I]
	sigBits := bits.Len(uint(max(m.C, 1) - 1))
	for r, p := range last {
		if p != unsortedRow {
			continue
		}
		lo, hi := out.RowPtr[r], out.RowPtr[r+1]
		col, val := out.Col[lo:hi], out.Val[lo:hi]
		if len(col) >= radixMinRow {
			s.radixSort(col, val, sigBits)
		} else {
			s.keySort(col, val)
		}
		for j := 1; j < len(col) && !dup; j++ {
			dup = col[j] == col[j-1]
		}
	}
	return dup
}

// rowSorter orders one row's (column, value) pairs by column, stably. Its
// buffers are reused from row to row.
type rowSorter[I Index] struct {
	keys  []uint64
	count []int32
	col   []I
	val   []float64
}

// keySort sorts (column, arrival) keys, then gathers the values by the
// arrival half of each key.
func (s *rowSorter[I]) keySort(col []I, val []float64) {
	s.keys = s.keys[:0]
	for j, c := range col {
		s.keys = append(s.keys, uint64(c)<<32|uint64(j))
	}
	slices.Sort(s.keys)
	s.val = append(s.val[:0], val...)
	for j, key := range s.keys {
		col[j] = I(key >> 32)
		val[j] = s.val[uint32(key)]
	}
}

// maxRadixBits bounds the width of one radixSort digit.
const maxRadixBits = 11

// radixSort orders the pairs by least-significant-digit radix passes over
// the low sigBits bits of the column (every column must fit them), as few
// passes as digits of at most maxRadixBits take, skipping a digit every
// column shares. Each pass is a counting scatter in the order the pairs
// stand, so it is stable, and stable passes from the low digit up leave
// equal columns in arrival order: the permutation keySort gives, so the
// values later summed per column come in the same sequence.
func (s *rowSorter[I]) radixSort(col []I, val []float64, sigBits int) {
	n := len(col)
	passes := max((sigBits+maxRadixBits-1)/maxRadixBits, 1)
	width := (sigBits + passes - 1) / passes
	mask := I(1<<width - 1)
	s.count = slices.Grow(s.count[:0], 1<<width)[:1<<width]
	s.col, s.val = slices.Grow(s.col[:0], n)[:n], slices.Grow(s.val[:0], n)[:n]
	srcC, srcV, dstC, dstV := col, val, s.col, s.val
	for shift := 0; shift < passes*width; shift += width {
		// cnt[d] counts the columns whose digit is d, then becomes where
		// the next of them goes.
		cnt := s.count
		clear(cnt)
		for _, c := range srcC {
			cnt[c>>shift&mask]++
		}
		if cnt[srcC[0]>>shift&mask] == int32(n) {
			continue // every column has this digit: the pass keeps the order
		}
		sum := int32(0)
		for d, k := range cnt {
			cnt[d], sum = sum, sum+k
		}
		for j, c := range srcC {
			d := c >> shift & mask
			q := cnt[d]
			cnt[d] = q + 1
			dstC[q], dstV[q] = c, srcV[j]
		}
		srcC, srcV, dstC, dstV = dstC, dstV, srcC, srcV
	}
	if &srcC[0] != &col[0] {
		copy(col, srcC)
		copy(val, srcV)
	}
}

// sumDuplicates folds each run of equal columns within a row into its
// first entry, adding the later values in order, and closes the gaps.
func (out *CSR[I]) sumDuplicates() {
	w := int64(0)
	lo := int64(0)
	for r := 0; r < out.R; r++ {
		hi := out.RowPtr[r+1]
		out.RowPtr[r] = w
		for k := lo; k < hi; k++ {
			if w > out.RowPtr[r] && out.Col[k] == out.Col[w-1] {
				out.Val[w-1] += out.Val[k]
				continue
			}
			out.Col[w], out.Val[w] = out.Col[k], out.Val[k]
			w++
		}
		lo = hi
	}
	out.RowPtr[out.R] = w
	out.Col, out.Val = out.Col[:w], out.Val[:w]
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

// CutBand cuts the rows [r0, r1) at the column edges e₀ < e₁ < … < eₖ
// into the k blocks [eⱼ, eⱼ₊₁), each a CSR matrix with indices rebased to
// its origin: the primitive that cache and TLB blocks and thread parts
// are built from. Nonzeros left of e₀ or right of eₖ belong to no block. It
// makes one pass over the band's nonzeros to find each one's block (a
// row's columns ascend, so its block only moves right) and a second to
// copy them, and writes each block's row pointers once.
func (m *CSR[I]) CutBand(r0, r1 int, edges []int) []*CSR[I] {
	rows, k := r1-r0, len(edges)-1
	out := make([]*CSR[I], k)
	base := m.RowPtr[r0]
	// block[p] is the block of the band's nonzero p, or k for none.
	block := make([]int32, m.RowPtr[r1]-base)
	count := make([]int64, k+1)
	for i := r0; i < r1; i++ {
		j := -1 // the block of the row's previous nonzero, if any
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := int(m.Col[p])
			if j < 0 || j == k || c >= edges[j+1] {
				j = sort.SearchInts(edges, c+1) - 1
			}
			b := j
			if j < 0 {
				b = k
			}
			block[p-base] = int32(b)
			count[b]++
		}
	}
	for j := range out {
		out[j] = &CSR[I]{R: rows, C: edges[j+1] - edges[j], RowPtr: make([]int64, rows+1),
			Col: make([]I, count[j]), Val: make([]float64, count[j])}
	}
	// pos[j] is where block j's next nonzero goes; filled[j] counts the
	// rows whose start in block j is written.
	pos, filled := make([]int64, k), make([]int, k)
	for i := 0; i < rows; i++ {
		lo, hi := m.RowPtr[r0+i]-base, m.RowPtr[r0+i+1]-base
		for p, j := range block[lo:hi] {
			if int(j) == k {
				continue
			}
			b, q := out[j], pos[j]
			for ; filled[j] <= i; filled[j]++ {
				b.RowPtr[filled[j]] = q
			}
			b.Col[q] = m.Col[base+lo+int64(p)] - I(edges[j])
			b.Val[q] = m.Val[base+lo+int64(p)]
			pos[j] = q + 1
		}
	}
	for j, b := range out {
		for ; filled[j] <= rows; filled[j]++ {
			b.RowPtr[filled[j]] = pos[j]
		}
	}
	return out
}

// Submatrix returns the block [r0,r1)×[c0,c1) with indices rebased to
// the block origin: CutBand with one block.
func (m *CSR[I]) Submatrix(r0, r1, c0, c1 int) *CSR[I] {
	return m.CutBand(r0, r1, []int{c0, c1})[0]
}
