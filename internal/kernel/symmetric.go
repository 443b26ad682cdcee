package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// symSegments is the canonical segment count of the parallel symmetric
// kernel. It is a fixed property of the kernel, NOT the thread count: the
// reduction order — and therefore every result bit — depends only on the
// segmentation, so pinning it makes SymSweep's output invariant to the
// number of threads actually scheduled (1 thread and 16 threads execute
// the identical floating-point graph, just on different goroutines).
const symSegments = 8

// symSeg is one canonical row segment of the upper-triangle store, plus
// the offset of its spill region inside the per-sweep scratch buffer. A
// segment owning rows [lo, hi) scatters y-contributions with target row
// j >= hi into its private spill slice (length N-hi, one slot per row of
// [hi, N)); targets j < hi land directly in y, which is race-free because
// in-segment targets satisfy lo <= i <= j < hi and segments own disjoint
// row ranges.
type symSeg struct {
	lo, hi   int
	spillOff int // element offset (per lane) of this segment's spill region
}

// SymSweep is the parallel symmetric SpMV kernel: the pOSKI-style
// scatter/reduce scheme over upper-triangle (SymCSR) storage. The serial
// symmetric kernel's scatter y[j] += a_ij*x[i] races across row
// partitions, so SymSweep splits every sweep into two phases:
//
//  1. Scan: each canonical segment processes its rows in order, writing
//     in-segment contributions (row sums and scatters that stay below the
//     segment boundary) straight into y and cross-segment scatters into a
//     private spill buffer. Segments touch disjoint regions of y and
//     disjoint spill regions, so any number of threads can execute phase 1
//     concurrently with no synchronization.
//  2. Reduce: every destination row folds its pending spill contributions
//     in ascending segment order — a deterministic ordered reduction.
//     Rows are independent in this phase, so it parallelizes over any row
//     partition without affecting the fold order.
//
// Because the segmentation is canonical (see symSegments) and both phases
// fix their accumulation order, the result is bitwise identical for every
// thread count, and each lane of a multi-RHS sweep computes exactly the
// bits of the corresponding single-vector sweep.
type SymSweep struct {
	m        *matrix.SymCSR
	segs     []symSeg
	spillLen int // per-lane scratch elements across all segments
	threads  int

	scratch sync.Pool // *[]float64, grown to spillLen*width on demand
}

// NewSymSweep builds the parallel symmetric kernel over sym. threads is
// the scheduling width (>= 1); it affects wall-clock only, never bits.
func NewSymSweep(sym *matrix.SymCSR, threads int) (*SymSweep, error) {
	if sym == nil {
		return nil, fmt.Errorf("kernel: nil symmetric matrix")
	}
	if threads < 1 {
		return nil, fmt.Errorf("kernel: threads must be >= 1, got %d", threads)
	}
	p, err := partition.ByNNZ(sym.RowPtr, symSegments)
	if err != nil {
		return nil, err
	}
	s := &SymSweep{m: sym, threads: threads}
	for _, r := range p.Ranges {
		s.segs = append(s.segs, symSeg{lo: r.Lo, hi: r.Hi, spillOff: s.spillLen})
		s.spillLen += sym.N - r.Hi
	}
	return s, nil
}

// Threads returns the scheduling width.
func (s *SymSweep) Threads() int { return s.threads }

// MulAdd implements Kernel: y ← y + A·x.
func (s *SymSweep) MulAdd(y, x []float64) error { return s.MulAddWidth(y, x, 1) }

// Format implements Kernel.
func (s *SymSweep) Format() matrix.Format { return s.m }

// Name implements Kernel.
func (s *SymSweep) Name() string {
	if s.threads == 1 {
		return "symcsr"
	}
	return fmt.Sprintf("symcsr[%d]", s.threads)
}

// Exec runs a set of independent tasks to completion before returning.
// SymSweep hands its phase-1 (segment scan) and phase-2 (row-chunk
// reduction) task sets to one: external executors — a serving worker
// pool, say — then own the sweep's CPU parallelism, keeping kernel work
// under the caller's concurrency bounds. Scheduling never affects result
// bits; only the canonical task decomposition does.
type Exec func(tasks []func())

// MulAddWidth computes Y ← Y + A·X over nv interleaved vectors
// (X[j*nv+v] is element j of vector v, the layout of MultiVec): the
// multi-RHS symmetric sweep, streaming the halved matrix once for all nv
// vectors. Safe for concurrent use; each call draws its own spill scratch.
//
//spmv:deterministic
func (s *SymSweep) MulAddWidth(y, x []float64, nv int) error {
	return s.MulAddWidthExec(y, x, nv, nil)
}

// MulAddWidthExec is MulAddWidth with the sweep's two parallel phases
// scheduled through exec (nil runs them on the kernel's own goroutines).
// The ordered segment-then-reduce phases make the result bits invariant
// to scheduling, which is the contract the directive pins.
//
//spmv:deterministic
func (s *SymSweep) MulAddWidthExec(y, x []float64, nv int, exec Exec) error {
	if nv < 1 {
		return fmt.Errorf("kernel: need at least 1 vector, got %d", nv)
	}
	n := s.m.N
	if len(y) != n*nv || len(x) != n*nv {
		return fmt.Errorf("%w: symmetric %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, n, n, nv, len(y), len(x))
	}
	if exec == nil {
		exec = s.ownExec
	}
	spill := s.getScratch(s.spillLen * nv)
	defer s.scratch.Put(spill)

	// Phase 1: scan segments (disjoint writes; scheduling-invariant).
	scans := make([]func(), 0, len(s.segs))
	for i := range s.segs {
		sg := s.segs[i]
		if sg.hi > sg.lo {
			scans = append(scans, func() { s.scanSegment(sg, y, x, *spill, nv) })
		}
	}
	exec(scans)

	// Phase 2: ordered spill reduction, parallel over row chunks. The
	// chunking follows the kernel's thread width; any chunking yields the
	// same bits (rows are independent, each folds its spills in segment
	// order).
	workers := s.threads
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s.reduceRows(y, *spill, nv, 0, n)
		return nil
	}
	chunk := (n + workers - 1) / workers
	reduces := make([]func(), 0, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo < hi {
			reduces = append(reduces, func() { s.reduceRows(y, *spill, nv, lo, hi) })
		}
	}
	exec(reduces)
	return nil
}

// ownExec runs tasks on the kernel's own goroutines, s.threads at a time.
func (s *SymSweep) ownExec(tasks []func()) {
	s.parallelDo(len(tasks), func(i int) { tasks[i]() })
}

// parallelDo runs f(0..n-1), inline when the kernel is single-threaded.
func (s *SymSweep) parallelDo(n int, f func(int)) {
	workers := s.threads
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// getScratch returns a zeroed buffer of at least need elements.
func (s *SymSweep) getScratch(need int) *[]float64 {
	b, _ := s.scratch.Get().(*[]float64)
	if b == nil {
		b = new([]float64)
	}
	if cap(*b) < need {
		*b = make([]float64, need)
	}
	*b = (*b)[:need]
	clear(*b)
	return b
}

// scanSegment executes phase 1 for one segment: the serial symmetric
// kernel restricted to rows [lo, hi), with cross-boundary scatters
// redirected to the segment's spill region.
func (s *SymSweep) scanSegment(sg symSeg, y, x, spill []float64, nv int) {
	m := s.m
	if nv == 1 {
		for i := sg.lo; i < sg.hi; i++ {
			xi := x[i]
			sum := 0.0
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				j := int(m.Col[k])
				v := m.Val[k]
				sum += float64(v * x[j])
				if j != i {
					if j < sg.hi {
						y[j] += float64(v * xi)
					} else {
						spill[sg.spillOff+j-sg.hi] += float64(v * xi)
					}
				}
			}
			y[i] += sum
		}
		return
	}
	sums := make([]float64, nv)
	for i := sg.lo; i < sg.hi; i++ {
		ib := i * nv
		for l := range sums {
			sums[l] = 0
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.Col[k])
			v := m.Val[k]
			jb := j * nv
			for l := 0; l < nv; l++ {
				sums[l] += float64(v * x[jb+l])
			}
			if j != i {
				if j < sg.hi {
					for l := 0; l < nv; l++ {
						y[jb+l] += float64(v * x[ib+l])
					}
				} else {
					sb := (sg.spillOff + j - sg.hi) * nv
					for l := 0; l < nv; l++ {
						spill[sb+l] += float64(v * x[ib+l])
					}
				}
			}
		}
		for l := 0; l < nv; l++ {
			y[ib+l] += sums[l]
		}
	}
}

// reduceRows executes phase 2 for destination rows [lo, hi): each row
// folds its spill contributions in ascending segment order. The segment
// loop is outermost for locality, but every row still receives its
// contributions in the same canonical order regardless of how [0, N) is
// chunked across threads.
func (s *SymSweep) reduceRows(y, spill []float64, nv, lo, hi int) {
	for _, sg := range s.segs {
		if sg.hi >= hi {
			continue // spill region [sg.hi, N) does not reach [lo, hi)
		}
		start := sg.hi
		if start < lo {
			start = lo
		}
		if nv == 1 {
			base := sg.spillOff - sg.hi
			for j := start; j < hi; j++ {
				y[j] += spill[base+j]
			}
			continue
		}
		for j := start; j < hi; j++ {
			sb := (sg.spillOff + j - sg.hi) * nv
			jb := j * nv
			for l := 0; l < nv; l++ {
				y[jb+l] += spill[sb+l]
			}
		}
	}
}
