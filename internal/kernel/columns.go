package kernel

import (
	"fmt"
	"sort"
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
// y after the slabs complete. Each call draws its buffers from a pool, so
// concurrent calls are safe. Column partitioning trades the row version's
// replicated source-vector traffic for a reduction over destination
// vectors — profitable for short-wide matrices (LP) where x dwarfs y.
type ParallelColumns struct {
	rows, cols int
	parts      []widePart // lo, hi bound the part's columns
	priv       sync.Pool  // *[]float64: one private y per part, end to end
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
	buf, _ := p.priv.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
		*buf = make([]float64, p.rows*len(p.parts))
	}
	defer p.priv.Put(buf)
	priv := *buf
	Run(len(p.parts), len(p.parts), func(i int) {
		pp, py := &p.parts[i], priv[i*p.rows:(i+1)*p.rows]
		clear(py)
		pp.k.sweep(py, x[pp.lo:pp.hi])
	})
	// Reduction: sum private buffers into y in part order. Parallelized
	// over row chunks so the reduction itself scales (each goroutine owns
	// a disjoint y range across all buffers).
	chunk := max(1, (p.rows+len(p.parts)-1)/len(p.parts))
	chunks := (p.rows + chunk - 1) / chunk
	Run(chunks, chunks, func(c int) {
		lo, hi := c*chunk, min((c+1)*chunk, p.rows)
		for i := range p.parts {
			for j, v := range priv[i*p.rows+lo : i*p.rows+hi] {
				y[lo+j] += v
			}
		}
	})
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
	}
	for t := 0; t <= threads; t++ {
		s.bounds[t] = nnz * int64(t) / int64(threads)
	}
	// Locate the row containing each boundary (binary search over RowPtr).
	rowOf := func(k int64) int {
		return sort.Search(m.R, func(i int) bool { return m.RowPtr[i+1] > k })
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
	// Each call's boundary partials are its own: head[t] and tail[t] sum
	// thread t's first and last (possibly shared) rows.
	head, tail := make([]float64, s.threads), make([]float64, s.threads)
	Run(s.threads, s.threads, func(t int) { s.scan(t, y, x, head, tail) })
	// Merge boundary partials: rows shared between adjacent threads were
	// accumulated privately; one sequential pass combines them. A row can
	// span several threads (a huge LP row), in which case every interior
	// thread contributed tail/head sums to the same row.
	for t := 0; t < s.threads; t++ {
		if s.firstRw[t] < s.m.R {
			y[s.firstRw[t]] += head[t]
		}
		if s.lastRw[t] < s.m.R && s.lastRw[t] != s.firstRw[t] {
			y[s.lastRw[t]] += tail[t]
		}
	}
	return nil
}

// scan sums thread t's nonzero chunk row by row. The chunk's first and
// last rows may be shared with neighbouring threads, so their sums go to
// the call's private partials; every row between goes straight to y, of
// which this thread is the only writer.
func (s *SegmentedScan) scan(t int, y, x, head, tail []float64) {
	k0, k1 := s.bounds[t], s.bounds[t+1]
	if k0 >= k1 {
		return
	}
	m := s.m
	first, last := s.firstRw[t], s.lastRw[t]
	for row := first; row <= last; row++ {
		lo, hi := max(k0, m.RowPtr[row]), min(k1, m.RowPtr[row+1])
		col := m.Col[lo:hi]
		sum := 0.0
		for n, v := range m.Val[lo:hi] {
			sum += float64(v * x[col[n]])
		}
		switch row {
		case first:
			head[t] += sum
		case last:
			tail[t] += sum
		default:
			y[row] += sum
		}
	}
}

// Format implements Kernel.
func (s *SegmentedScan) Format() matrix.Format { return s.m }

// Name implements Kernel.
func (s *SegmentedScan) Name() string {
	return fmt.Sprintf("segmented-scan[%d]", s.threads)
}
