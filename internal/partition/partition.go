// Package partition implements the work-decomposition strategies of the
// SC'07 SpMV study: 1-D row partitioning balanced by nonzeros (the paper's
// parallelization strategy), equal-rows partitioning (PETSc's default,
// reproduced for the OSKI-PETSc baseline and its load-imbalance failure
// mode), and the column-span computations used by cache and TLB blocking.
//
// A partition of the row space assigns each thread a contiguous band of
// rows, so parallel SpMV needs no synchronization on the destination
// vector: every y element has exactly one writer.
package partition

import (
	"fmt"
	"sort"
)

// Range is a half-open interval of rows [Lo, Hi) assigned to one thread,
// annotated with the NUMA node its matrix block should be placed on.
type Range struct {
	Lo, Hi int
	NNZ    int64 // nonzeros inside the range, for imbalance reporting
	Node   int   // NUMA node owning the block (memory affinity)
}

// Rows returns the number of rows in the range.
func (r Range) Rows() int { return r.Hi - r.Lo }

// Partition is an ordered list of disjoint ranges covering [0, rows).
type Partition struct {
	TotalRows int
	Ranges    []Range
}

// Validate checks that the ranges tile [0, TotalRows) exactly.
func (p *Partition) Validate() error {
	at := 0
	for i, r := range p.Ranges {
		if r.Lo != at {
			return fmt.Errorf("partition: range %d starts at %d, want %d", i, r.Lo, at)
		}
		if r.Hi < r.Lo {
			return fmt.Errorf("partition: range %d inverted [%d,%d)", i, r.Lo, r.Hi)
		}
		at = r.Hi
	}
	if at != p.TotalRows {
		return fmt.Errorf("partition: ranges end at %d, want %d", at, p.TotalRows)
	}
	return nil
}

// Imbalance returns max(nnz)/mean(nnz) over the ranges, the paper's load
// imbalance measure (e.g. FEM-Accel with equal-rows: one rank holds 40% of
// all nonzeros in a 4-process run). An empty or zero-nnz partition reports 1.
func (p *Partition) Imbalance() float64 {
	var total, maxNNZ int64
	for _, r := range p.Ranges {
		total += r.NNZ
		if r.NNZ > maxNNZ {
			maxNNZ = r.NNZ
		}
	}
	if total == 0 || len(p.Ranges) == 0 {
		return 1
	}
	mean := float64(total) / float64(len(p.Ranges))
	return float64(maxNNZ) / mean
}

// MaxShare returns the largest fraction of total nonzeros held by any one
// range.
func (p *Partition) MaxShare() float64 {
	var total, maxNNZ int64
	for _, r := range p.Ranges {
		total += r.NNZ
		if r.NNZ > maxNNZ {
			maxNNZ = r.NNZ
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxNNZ) / float64(total)
}

// rangeNNZ computes the nonzeros in rows [lo,hi) from a CSR row pointer.
func rangeNNZ(rowPtr []int64, lo, hi int) int64 { return rowPtr[hi] - rowPtr[lo] }

// ByNNZ partitions rows into n contiguous ranges, balancing the number of
// nonzeros per range. This is the paper's static load balancing: "our
// implementation attempts to statically load balance the matrix by
// balancing the number of nonzeros". Row boundaries are found by binary
// search over the CSR row-pointer prefix sums.
func ByNNZ(rowPtr []int64, n int) (*Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: need at least 1 part, got %d", n)
	}
	rows := len(rowPtr) - 1
	if rows < 0 {
		return nil, fmt.Errorf("partition: invalid row pointer of length %d", len(rowPtr))
	}
	total := rowPtr[rows]
	p := &Partition{TotalRows: rows}
	lo := 0
	for i := 0; i < n; i++ {
		// Ideal cumulative nonzero count at the end of part i.
		target := total * int64(i+1) / int64(n)
		// Smallest row index hi >= lo with rowPtr[hi] >= target.
		hi := lo + sort.Search(rows-lo, func(d int) bool {
			return rowPtr[lo+d+1] >= target
		}) + 1
		if i == n-1 || hi > rows {
			hi = rows
		}
		if hi < lo {
			hi = lo
		}
		p.Ranges = append(p.Ranges, Range{Lo: lo, Hi: hi, NNZ: rangeNNZ(rowPtr, lo, hi)})
		lo = hi
	}
	return p, p.Validate()
}

// ByNNZCounts is ByNNZ for matrices not yet in CSR form: counts[i] is the
// number of nonzeros in row i. The shard coordinator uses it to band a
// coordinate-form matrix across member nodes before any node builds CSR.
func ByNNZCounts(counts []int64, n int) (*Partition, error) {
	rowPtr := make([]int64, len(counts)+1)
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("partition: negative count %d at row %d", c, i)
		}
		rowPtr[i+1] = rowPtr[i] + c
	}
	return ByNNZ(rowPtr, n)
}

// EqualRows partitions rows into n contiguous ranges with (near-)equal row
// counts, PETSc's default block-row distribution. Nonzero counts are
// recorded so callers can observe the resulting imbalance.
func EqualRows(rowPtr []int64, n int) (*Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: need at least 1 part, got %d", n)
	}
	rows := len(rowPtr) - 1
	p := &Partition{TotalRows: rows}
	for i := 0; i < n; i++ {
		lo := rows * i / n
		hi := rows * (i + 1) / n
		p.Ranges = append(p.Ranges, Range{Lo: lo, Hi: hi, NNZ: rangeNNZ(rowPtr, lo, hi)})
	}
	return p, p.Validate()
}

// AssignNUMA tags each range with a NUMA node, distributing threads round-
// robin-by-block across nodes the way the paper binds thread blocks to the
// socket whose memory controller holds their matrix block: the first
// len(ranges)/nodes ranges go to node 0, the next group to node 1, etc.
func AssignNUMA(p *Partition, nodes int) {
	if nodes < 1 {
		nodes = 1
	}
	n := len(p.Ranges)
	for i := range p.Ranges {
		p.Ranges[i].Node = i * nodes / max(n, 1)
	}
}

// ColumnSpan describes one cache (or TLB) block's column interval.
type ColumnSpan struct {
	Lo, Hi int
}

// SpansByLineBudget computes column spans for one row band such that each
// span touches at most lineBudget distinct source-vector cache lines
// *actually referenced by the band's nonzeros* — the paper's "sparse cache
// blocking", which spans a variable number of columns per block so that
// every block touches the same number of useful lines, in contrast to
// classical fixed-width ("dense") cache blocking.
//
// cols is the matrix column count, lineElems the number of float64 elements
// per cache line (8 for 64-byte lines), and touched the sorted distinct
// column indices referenced by the band. The returned spans tile [0, cols).
func SpansByLineBudget(cols, lineElems, lineBudget int, touched []int32) []ColumnSpan {
	if lineBudget < 1 || len(touched) == 0 {
		return []ColumnSpan{{0, cols}}
	}
	var spans []ColumnSpan
	lo := 0
	lines := 0
	lastLine := -1
	for _, c := range touched {
		line := int(c) / lineElems
		if line == lastLine {
			continue
		}
		if lines == lineBudget {
			// Close the span at the start of this line's first column.
			hi := line * lineElems
			if hi <= lo { // a single line exceeds the budget span; force progress
				hi = lo + lineElems
			}
			if hi > cols {
				hi = cols
			}
			spans = append(spans, ColumnSpan{lo, hi})
			lo = hi
			lines = 0
			if int(c) < lo { // column already covered by forced progress
				lastLine = line
				continue
			}
		}
		lines++
		lastLine = line
	}
	if lo < cols {
		spans = append(spans, ColumnSpan{lo, cols})
	}
	if len(spans) == 0 {
		spans = []ColumnSpan{{0, cols}}
	}
	return spans
}

// FixedWidthSpans tiles [0, cols) into spans of the given width, the
// classical dense cache blocking (~1K-column tiles in prior work) used by
// the OSKI baseline and the Cell implementation.
func FixedWidthSpans(cols, width int) []ColumnSpan {
	if width < 1 || width >= cols {
		return []ColumnSpan{{0, cols}}
	}
	var spans []ColumnSpan
	for lo := 0; lo < cols; lo += width {
		hi := lo + width
		if hi > cols {
			hi = cols
		}
		spans = append(spans, ColumnSpan{lo, hi})
	}
	return spans
}
