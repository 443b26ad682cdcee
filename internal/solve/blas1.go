// Package solve implements the iterative methods that motivate the
// paper's SpMV optimization work — Williams et al. open by noting SpMV
// "dominates the performance of diverse applications in scientific and
// engineering computing"; the applications in question are outer solvers
// that call the kernel thousands of times. The package provides
// unpreconditioned Conjugate Gradient (symmetric positive definite
// operators) and power iteration (general square operators) as stateful
// steppers: construct once, Step per iteration, observe the residual
// history between steps. The serving layer hosts them as server-resident
// solver sessions whose vectors never leave the process.
//
// Both solvers consume the operator only through an Apply function, so
// any SpMV path works: a compiled spmv.Operator, the serving layer's
// snapshot-swapped fused path, or a test stub.
//
// Determinism: every BLAS-1 reduction (Dot, Norm2) is computed over fixed
// 1024-element blocks whose partials are summed in ascending block order —
// a summation tree that depends only on the vector length, never on the
// thread count, so solver trajectories are bit-reproducible across Threads
// settings whenever Apply is too.
package solve

import (
	"math"
	"sync"
)

// detBlockLen is the fixed reduction-block length. The summation tree is (⌈n/1024⌉ ordered partials, each a sequential
// 1024-element sum) for every thread count — small enough that partials
// parallelize, large enough that the serial combine is noise.
const detBlockLen = 1024

// parallelGrain is the minimum per-thread element count worth a
// goroutine; below it the work runs on the calling goroutine. Measured on
// a 2-vCPU host (go1.24) with the fused CG update — the heaviest pass here,
// four streams and a reduction: two goroutines tie with one at 35–50k
// elements each and win only from ~70k, so vectors the size of the serving
// benchmarks' (22.5k) never pay a spawn and a wake-up per pass. Execution
// strategy never changes the summation tree, so this threshold affects
// wall-clock only, never bits.
const parallelGrain = 1 << 16

// BLAS is a configured set of fused BLAS-1 operations. The zero value is
// serial.
type BLAS struct {
	// Threads is the parallel width; <= 1 means serial. It never changes
	// result bits.
	Threads int
}

func (b BLAS) threads() int {
	if b.Threads < 1 {
		return 1
	}
	return b.Threads
}

// chunks is how many contiguous near-equal ranges [0, n) splits into for
// parts workers, and chunk the bounds of range p of them.
func chunks(n, parts int) int { return max(1, min(parts, n)) }

func chunk(n, parts, p int) (lo, hi int) { return n * p / parts, n * (p + 1) / parts }

// reduceParts is how many ordered partial sums a length-n reduction has —
// one per fixed block — and reducePart the bounds of partial p of them.
func reduceParts(n int) int { return (n + detBlockLen - 1) / detBlockLen }

func reducePart(n, p int) (lo, hi int) {
	lo = p * detBlockLen
	return lo, min(lo+detBlockLen, n)
}

// runParts executes f(part) for every part index, spreading parts over at
// most threads goroutines when each goroutine's share of totalWork (in
// elements) is large enough to pay for it — a reduction has many small
// fixed blocks, so the gate must look at the per-goroutine batch,
// not the per-part size. The assignment of parts to goroutines never
// affects results: every part writes only its own slot.
func runParts(parts, threads, totalWork int, f func(part int)) {
	// workers is never reassigned, so the goroutines below capture it by
	// value and the serial path allocates nothing.
	workers := min(threads, parts)
	if workers <= 1 || totalWork/workers < parallelGrain {
		for p := 0; p < parts; p++ {
			f(p)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for p := w; p < parts; p += workers {
				f(p)
			}
		}(w)
	}
	for p := 0; p < parts; p += workers {
		f(p)
	}
	wg.Wait()
}

// reduce computes the sum of partial(lo, hi) over [0, n) in fixed-block
// order. partial must be a pure sequential sum of its range.
func (b BLAS) reduce(n int, partial func(lo, hi int) float64) float64 {
	if n == 0 {
		return 0
	}
	parts := reduceParts(n)
	partials := make([]float64, parts)
	runParts(parts, b.threads(), n, func(p int) {
		partials[p] = partial(reducePart(n, p))
	})
	return sumOrdered(partials)
}

// sumOrdered adds the partials in ascending order: the fixed top of every
// reduction's summation tree.
func sumOrdered(partials []float64) float64 {
	var s float64
	for _, v := range partials {
		s += v
	}
	return s
}

// each runs an element-wise update over [0, n) in one chunk per thread.
func (b BLAS) each(n int, f func(lo, hi int)) {
	parts := chunks(n, b.threads())
	runParts(parts, b.threads(), n, func(p int) { f(chunk(n, parts, p)) })
}

// Dot returns xᵀy. It panics when the lengths differ (programmer error,
// like the stdlib's copy contract). The fixed-block partial sums reduce
// in block order, so the result bits are thread-count invariant — the
// solver-trajectory determinism contract.
//
//spmv:deterministic
func (b BLAS) Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("solve: Dot length mismatch")
	}
	return b.reduce(len(x), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += float64(x[i] * y[i])
		}
		return s
	})
}

// Norm2 returns ‖x‖₂, the square root of Dot(x, x).
//
//spmv:deterministic
func (b BLAS) Norm2(x []float64) float64 {
	return math.Sqrt(b.Dot(x, x))
}

// Axpy computes y ← y + α·x. Element-wise, so its bits never depend on
// the thread count.
//
//spmv:deterministic
func (b BLAS) Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("solve: Axpy length mismatch")
	}
	b.each(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += float64(alpha * x[i])
		}
	})
}

// Xpay computes y ← x + α·y — the CG search-direction update
// p = r + β·p. Element-wise, bit-stable at any thread count.
//
//spmv:deterministic
func (b BLAS) Xpay(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("solve: Xpay length mismatch")
	}
	b.each(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = x[i] + float64(alpha*y[i])
		}
	})
}

// Scale computes x ← α·x. Element-wise, bit-stable at any thread count.
//
//spmv:deterministic
func (b BLAS) Scale(alpha float64, x []float64) {
	b.each(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= alpha
		}
	})
}
