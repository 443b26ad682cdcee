package solve_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/solve"
)

// laplace1D is y = A·x for the 1-D Laplacian stencil (−1, 2, −1): SPD with
// a condition number O(n²), so CG is still far from converged after any
// step count these tests run.
func laplace1D(y, x []float64) error {
	n := len(x)
	for i := range x {
		v := 2 * x[i]
		if i > 0 {
			v -= x[i-1]
		}
		if i < n-1 {
			v -= x[i+1]
		}
		y[i] = v
	}
	return nil
}

// composedCG is the CG recurrence written out of the public BLAS-1
// primitives, one pass per operation: what CG.Step fuses, and the
// definition of its bits.
type composedCG struct {
	blas        solve.BLAS
	x, r, p, ap []float64
	rr, bnorm   float64
	history     []float64
}

func newComposedCG(b []float64, blas solve.BLAS) *composedCG {
	c := &composedCG{
		blas: blas,
		x:    make([]float64, len(b)), ap: make([]float64, len(b)),
		r: append([]float64(nil), b...), p: append([]float64(nil), b...),
	}
	c.rr = blas.Dot(c.r, c.r)
	c.bnorm = blas.Norm2(b)
	return c
}

func (c *composedCG) step() {
	_ = laplace1D(c.ap, c.p)
	alpha := c.rr / c.blas.Dot(c.p, c.ap)
	c.blas.Axpy(alpha, c.p, c.x)
	c.blas.Axpy(-alpha, c.ap, c.r)
	rrNew := c.blas.Dot(c.r, c.r)
	c.history = append(c.history, math.Sqrt(rrNew)/c.bnorm)
	c.blas.Xpay(rrNew/c.rr, c.r, c.p)
	c.rr = rrNew
}

// TestCGStepMatchesComposedPrimitives: the fused step's residual history
// and iterate carry the bits of the step composed from Dot, Axpy and Xpay,
// at every thread count, in both reduction modes, at lengths around the
// fixed-block boundary, the serving benchmarks' size, and (300 000) one
// long enough that every thread count runs its passes on goroutines.
func TestCGStepMatchesComposedPrimitives(t *testing.T) {
	const steps = 6
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 1000, 1024, 1025, 22500, 70000, 300000} {
		b := randVec(rng, n)
		for _, det := range []bool{true, false} {
			for _, threads := range []int{1, 2, 4} {
				name := fmt.Sprintf("n=%d/det=%v/threads=%d", n, det, threads)
				ref := newComposedCG(b, solve.BLAS{Threads: threads, Deterministic: det})
				cg, err := solve.NewCG(laplace1D, b, nil, solve.Options{MaxIters: steps, Threads: threads, Deterministic: det})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for k := 1; k <= steps; k++ {
					if _, err := cg.Step(); err != nil {
						t.Fatalf("%s: step %d: %v", name, k, err)
					}
					if cg.Iters() < k {
						break // n = 1 is solved exactly by the first step
					}
					ref.step()
					if !bitsEqual(cg.History(), ref.history) {
						t.Fatalf("%s: step %d: history %x, composed %x", name, k, cg.History(), ref.history)
					}
					if !bitsEqual(cg.X(), ref.x) {
						t.Fatalf("%s: step %d: iterate differs from the composed step's", name, k)
					}
				}
				if n > 1 && cg.Iters() != steps {
					t.Fatalf("%s: ran %d of %d steps", name, cg.Iters(), steps)
				}
			}
		}
	}
}

// TestCGStepAllocations: a step allocates nothing per call — no partition,
// no partials, no closures — only the history's amortized growth.
func TestCGStepAllocations(t *testing.T) {
	const n = 22500
	b := randVec(rand.New(rand.NewSource(8)), n)
	for _, det := range []bool{true, false} {
		for _, threads := range []int{1, 2, 4} {
			cg, err := solve.NewCG(laplace1D, b, nil, solve.Options{MaxIters: 1 << 20, Threads: threads, Deterministic: det})
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := cg.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if cg.Status() != solve.Running {
				t.Fatalf("det=%v threads=%d: solver left Running (%v) while being measured", det, threads, cg.Status())
			}
			if allocs > 1 {
				t.Errorf("det=%v threads=%d: %.1f allocations per Step, want at most 1", det, threads, allocs)
			}
		}
	}
}

// BenchmarkCGStep times one step without its Apply share subtracted, at
// the serving benchmark's size and at one past the goroutine grain.
func BenchmarkCGStep(b *testing.B) {
	for _, n := range []int{22500, 300000} {
		rhs := randVec(rand.New(rand.NewSource(9)), n)
		for _, threads := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/threads=%d", n, threads), func(b *testing.B) {
				cg, err := solve.NewCG(laplace1D, rhs, nil, solve.Options{MaxIters: 1 << 30, Threads: threads, Deterministic: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cg.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
