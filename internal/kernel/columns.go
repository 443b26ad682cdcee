package kernel

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// This file implements the two parallelization strategies §4.3 names but
// leaves to future work ("In this paper, we only exploit row partitioning;
// future work will examine column partitioning and segmented scan").
// DESIGN.md lists them as reproduced extensions; the experiment harness
// uses row partitioning exclusively, like the paper.

// ColPart pairs a column span with the encoded sub-matrix (full row
// height, columns rebased to the span origin) owned by one thread.
type ColPart struct {
	Span partition.ColumnSpan
	Enc  matrix.Format
}

// ParallelColumns is a column-partitioned SpMV kernel: each thread owns a
// vertical slab and a private destination buffer; buffers are summed into
// y after the slabs complete. Column partitioning trades the row version's
// replicated source-vector traffic for a reduction over destination
// vectors — profitable for short-wide matrices (LP) where x dwarfs y.
type ParallelColumns struct {
	rows, cols int
	parts      []widePart  // lo, hi bound the part's columns
	priv       [][]float64 // per-thread private y
	fm         *partsFormat
}

// NewParallelColumns assembles the kernel. Parts must tile [0, cols) in
// order, each encoding having dimensions rows × Span width.
func NewParallelColumns(rows, cols int, parts []ColPart) (*ParallelColumns, error) {
	p := &ParallelColumns{rows: rows, cols: cols, fm: &partsFormat{rows: rows, cols: cols,
		name: fmt.Sprintf("parallel-columns[%d]", len(parts))}}
	at := 0
	for i, cp := range parts {
		if cp.Span.Lo != at {
			return nil, fmt.Errorf("kernel: column part %d starts at %d, want %d", i, cp.Span.Lo, at)
		}
		at = cp.Span.Hi
		er, ec := cp.Enc.Dims()
		if er != rows || ec != cp.Span.Hi-cp.Span.Lo {
			return nil, fmt.Errorf("kernel: column part %d encoding %dx%d, want %dx%d",
				i, er, ec, rows, cp.Span.Hi-cp.Span.Lo)
		}
		k, err := compileWide(cp.Enc, 1)
		if err != nil {
			return nil, fmt.Errorf("kernel: column part %d: %w", i, err)
		}
		p.parts = append(p.parts, widePart{lo: cp.Span.Lo, hi: cp.Span.Hi, k: k})
		p.priv = append(p.priv, make([]float64, rows))
		p.fm.encs = append(p.fm.encs, cp.Enc)
	}
	if at != cols {
		return nil, fmt.Errorf("kernel: column parts end at %d, want %d", at, cols)
	}
	return p, nil
}

// Threads returns the number of column slabs.
func (p *ParallelColumns) Threads() int { return len(p.parts) }

// MulAdd implements Kernel.
func (p *ParallelColumns) MulAdd(y, x []float64) error {
	if len(y) != p.rows || len(x) != p.cols {
		return fmt.Errorf("%w: matrix %dx%d with len(y)=%d len(x)=%d",
			matrix.ErrShape, p.rows, p.cols, len(y), len(x))
	}
	var wg sync.WaitGroup
	wg.Add(len(p.parts))
	for i := range p.parts {
		go func(i int) {
			defer wg.Done()
			pp := &p.parts[i]
			clear(p.priv[i])
			pp.k.sweep(p.priv[i], x[pp.lo:pp.hi])
		}(i)
	}
	wg.Wait()
	// Reduction: sum private buffers into y. Parallelized over row chunks
	// so the reduction itself scales (each goroutine owns a disjoint y
	// range across all buffers).
	chunk := (p.rows + len(p.parts) - 1) / len(p.parts)
	if chunk < 1 {
		chunk = 1
	}
	var rg sync.WaitGroup
	for lo := 0; lo < p.rows; lo += chunk {
		hi := lo + chunk
		if hi > p.rows {
			hi = p.rows
		}
		rg.Add(1)
		go func(lo, hi int) {
			defer rg.Done()
			for _, priv := range p.priv {
				for j := lo; j < hi; j++ {
					y[j] += priv[j]
				}
			}
		}(lo, hi)
	}
	rg.Wait()
	return nil
}

// Format implements Kernel: a Format whose accounting is the sum of the
// slabs' own encodings.
func (p *ParallelColumns) Format() matrix.Format { return p.fm }

// Name implements Kernel.
func (p *ParallelColumns) Name() string { return p.fm.name }

// SegmentedScan is the dynamic-by-nonzeros parallelization: the nonzero
// stream is split into equal contiguous chunks with no regard for row
// boundaries ("a thread based segmented scan would allow dynamic
// parallelization (by nonzeros) within a sub-block of the matrix"). Each
// thread accumulates complete rows directly and its two boundary partial
// rows privately; the boundary partials are merged after the join. This is
// the thread-level analogue of the classic segmented-scan vector SpMV
// [Blelloch et al. 93].
type SegmentedScan struct {
	m       *matrix.CSR32
	threads int
	bounds  []int64 // len threads+1, nonzero-range boundaries
	firstRw []int   // first row touched by each thread
	lastRw  []int
	headSum []float64 // partial sum of each thread's first (shared) row
	tailSum []float64 // partial sum of each thread's last (shared) row
}

// NewSegmentedScan splits the CSR nonzero stream into `threads` equal
// chunks.
func NewSegmentedScan(m *matrix.CSR32, threads int) (*SegmentedScan, error) {
	if threads < 1 {
		return nil, fmt.Errorf("kernel: segmented scan needs >= 1 thread")
	}
	nnz := m.NNZ()
	s := &SegmentedScan{
		m:       m,
		threads: threads,
		bounds:  make([]int64, threads+1),
		firstRw: make([]int, threads),
		lastRw:  make([]int, threads),
		headSum: make([]float64, threads),
		tailSum: make([]float64, threads),
	}
	for t := 0; t <= threads; t++ {
		s.bounds[t] = nnz * int64(t) / int64(threads)
	}
	// Locate the row containing each boundary (binary search over RowPtr).
	rowOf := func(k int64) int {
		lo, hi := 0, m.R
		for lo < hi {
			mid := (lo + hi) / 2
			if m.RowPtr[mid+1] <= k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for t := 0; t < threads; t++ {
		if s.bounds[t] >= nnz {
			s.firstRw[t], s.lastRw[t] = m.R, m.R
			continue
		}
		s.firstRw[t] = rowOf(s.bounds[t])
		if s.bounds[t+1] > 0 {
			s.lastRw[t] = rowOf(s.bounds[t+1] - 1)
		} else {
			s.lastRw[t] = s.firstRw[t]
		}
	}
	return s, nil
}

// Threads returns the chunk count.
func (s *SegmentedScan) Threads() int { return s.threads }

// MulAdd implements Kernel.
func (s *SegmentedScan) MulAdd(y, x []float64) error {
	m := s.m
	if len(y) != m.R || len(x) != m.C {
		return fmt.Errorf("%w: matrix %dx%d with len(y)=%d len(x)=%d",
			matrix.ErrShape, m.R, m.C, len(y), len(x))
	}
	var wg sync.WaitGroup
	wg.Add(s.threads)
	for t := 0; t < s.threads; t++ {
		go func(t int) {
			defer wg.Done()
			k0, k1 := s.bounds[t], s.bounds[t+1]
			s.headSum[t], s.tailSum[t] = 0, 0
			if k0 >= k1 {
				return
			}
			first, last := s.firstRw[t], s.lastRw[t]
			row := first
			end := m.RowPtr[row+1]
			sum := 0.0
			for k := k0; k < k1; k++ {
				for k == end {
					s.flush(t, row, first, last, sum, y)
					sum = 0
					row++
					end = m.RowPtr[row+1]
				}
				sum += float64(m.Val[k] * x[m.Col[k]])
			}
			s.flush(t, row, first, last, sum, y)
		}(t)
	}
	wg.Wait()
	// Merge boundary partials: rows shared between adjacent threads were
	// accumulated privately; one sequential pass combines them. A row can
	// span several threads (a huge LP row), in which case every interior
	// thread contributed tail/head sums to the same row.
	for t := 0; t < s.threads; t++ {
		if s.firstRw[t] < s.m.R {
			y[s.firstRw[t]] += s.headSum[t]
		}
		if s.lastRw[t] < s.m.R && s.lastRw[t] != s.firstRw[t] {
			y[s.lastRw[t]] += s.tailSum[t]
		}
	}
	return nil
}

// flush routes a completed row sum: boundary rows go to the private
// accumulators (they may be shared with neighbouring threads), interior
// rows go straight to y (this thread is their only writer).
func (s *SegmentedScan) flush(t, row, first, last int, sum float64, y []float64) {
	switch {
	case row == first:
		s.headSum[t] += sum
	case row == last:
		s.tailSum[t] += sum
	default:
		y[row] += sum
	}
}

// Format implements Kernel.
func (s *SegmentedScan) Format() matrix.Format { return s.m }

// Name implements Kernel.
func (s *SegmentedScan) Name() string {
	return fmt.Sprintf("segmented-scan[%d]", s.threads)
}
