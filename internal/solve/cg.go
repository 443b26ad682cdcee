package solve

import (
	"fmt"
	"math"
)

// Apply computes y ← A·x, overwriting y. Implementations must not retain
// the slices. The solvers call it once per iteration — in a serving
// session this is the fused SpMV path, the multiplication the paper's
// whole optimization stack exists to make fast.
type Apply func(y, x []float64) error

// Options configures one solver instance.
type Options struct {
	// Tol is the relative-residual convergence target: CG stops when
	// ‖b − A·x‖ ≤ Tol·‖b‖, power iteration when ‖A·q − λq‖ ≤ Tol·max(|λ|, 1).
	// 0 disables the test (the solver runs to its budget); negative or
	// non-finite values are rejected.
	Tol float64
	// MaxIters is the step budget; <= 0 means DefaultMaxIters.
	MaxIters int
	// Threads is the BLAS-1 parallel width; <= 1 means serial. The
	// reductions' bits are invariant to it (see BLAS), so with a
	// thread-invariant Apply the whole trajectory is bit-reproducible.
	Threads int
}

// DefaultMaxIters is the step budget applied when Options.MaxIters <= 0.
const DefaultMaxIters = 500

// Status is a solver's lifecycle state.
type Status int

const (
	// Running: the solver accepts further Steps.
	Running Status = iota
	// Converged: the residual target was met.
	Converged
	// BudgetExhausted: MaxIters steps ran without meeting the target.
	BudgetExhausted
	// Failed: Apply errored, the iteration broke down (CG on a
	// non-positive-definite operator), or the residual left the floats.
	Failed
)

func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Converged:
		return "converged"
	case BudgetExhausted:
		return "budget_exhausted"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

func (o *Options) normalize() error {
	if math.IsNaN(o.Tol) || math.IsInf(o.Tol, 0) || o.Tol < 0 {
		return fmt.Errorf("solve: tolerance %g is not a finite non-negative number", o.Tol)
	}
	if o.MaxIters <= 0 {
		o.MaxIters = DefaultMaxIters
	}
	return nil
}

// CG is an unpreconditioned Conjugate Gradient iteration over a symmetric
// positive definite operator: per step one Apply and three passes over the
// vectors — pᵀAp; then x += αp, r −= α·Ap and rᵀr together; then
// p = r + βp. The classic bandwidth-bound consumer of tuned SpMV — §2.1's
// motivation for every byte the tuner shaves off the matrix stream.
//
// The passes walk the reduction partition of BLAS.Dot (fixed 1024-element
// blocks) and sum
// its partials in the same ascending order, and every element sees the
// operations Axpy, Axpy, Dot and Xpay would apply to it, in that order —
// so a trajectory has the bits of one composed from those primitives,
// while streaming x, r, p and Ap once per step instead of up to three times.
type CG struct {
	apply Apply
	blas  BLAS
	opt   Options

	x, r, p, ap []float64
	rr          float64 // rᵀr carried between steps
	bnorm       float64
	iters       int
	status      Status
	err         error
	history     []float64 // relative residual after each step

	// The step's passes, bound once so a Step allocates nothing but history
	// growth: each fills or reads its part of the partition, with the
	// step's scalars handed over in alpha and beta.
	parts                     int
	partials                  []float64
	alpha, beta               float64
	papPass, updPass, dirPass func(part int)
}

// NewCG prepares a CG solve of A·x = b from initial guess x0 (zero when
// nil). When x0 is non-zero the constructor runs one Apply to form the
// true initial residual r = b − A·x0.
func NewCG(apply Apply, b, x0 []float64, opt Options) (*CG, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	n := len(b)
	if n == 0 {
		return nil, fmt.Errorf("solve: empty right-hand side")
	}
	if x0 != nil && len(x0) != n {
		return nil, fmt.Errorf("solve: len(x0)=%d, len(b)=%d", len(x0), n)
	}
	c := &CG{
		apply: apply,
		blas:  BLAS{Threads: opt.Threads},
		opt:   opt,
		x:     make([]float64, n),
		r:     append([]float64(nil), b...),
		ap:    make([]float64, n),
	}
	c.parts = reduceParts(n)
	c.partials = make([]float64, c.parts)
	c.papPass, c.updPass, c.dirPass = c.papPart, c.updatePart, c.directionPart
	if x0 != nil {
		copy(c.x, x0)
		if err := apply(c.ap, x0); err != nil {
			return nil, fmt.Errorf("solve: initial residual: %w", err)
		}
		c.blas.Axpy(-1, c.ap, c.r) // r = b − A·x0
	}
	c.p = append([]float64(nil), c.r...)
	c.rr = c.blas.Dot(c.r, c.r)
	c.bnorm = c.blas.Norm2(b)
	if !isFiniteVal(c.rr) || !isFiniteVal(c.bnorm) {
		return nil, fmt.Errorf("solve: non-finite right-hand side or initial guess")
	}
	if c.bnorm == 0 {
		// b = 0: for SPD A the unique solution is x = 0, whatever the
		// initial guess was; relative residuals are undefined, so report
		// the exact solution converged rather than iterating.
		clear(c.x)
		clear(c.r)
		clear(c.p)
		c.rr = 0
		c.status = Converged
		return c, nil
	}
	if opt.Tol > 0 && math.Sqrt(c.rr)/c.bnorm <= opt.Tol {
		c.status = Converged
	}
	return c, nil
}

// Step runs one CG iteration, returning done = true once the solver has
// left Running. Stepping a finished solver is a no-op returning its
// terminal error, if any.
func (c *CG) Step() (done bool, err error) {
	if c.status != Running {
		return true, c.err
	}
	if c.rr == 0 {
		// Exact zero residual: the iterate solves the system to the last
		// bit; another step would divide by pᵀAp = 0.
		c.status = Converged
		return true, nil
	}
	if err := c.apply(c.ap, c.p); err != nil {
		return c.fail(fmt.Errorf("solve: apply: %w", err))
	}
	pap := c.reducePass(c.papPass)
	if !(pap > 0) || math.IsInf(pap, 0) {
		// For SPD A, pᵀAp > 0 for every non-zero p; anything else is a
		// breakdown (indefinite operator, or the residual vanished to
		// exactly zero between the convergence test and this step).
		return c.fail(fmt.Errorf("solve: CG breakdown at iteration %d: pᵀAp = %g (operator not positive definite?)", c.iters, pap))
	}
	c.alpha = c.rr / pap
	rrNew := c.reducePass(c.updPass)
	c.iters++
	relres := math.Sqrt(rrNew) / c.bnorm
	c.history = append(c.history, relres)
	if !isFiniteVal(relres) {
		return c.fail(fmt.Errorf("solve: residual diverged at iteration %d", c.iters))
	}
	c.beta = rrNew / c.rr
	runParts(c.parts, c.blas.threads(), len(c.x), c.dirPass)
	c.rr = rrNew
	switch {
	case c.opt.Tol > 0 && relres <= c.opt.Tol:
		c.status = Converged
	case c.iters >= c.opt.MaxIters:
		c.status = BudgetExhausted
	}
	return c.status != Running, nil
}

// reducePass runs one of the step's reducing passes over the partition and
// returns the ordered sum of the partials it left.
func (c *CG) reducePass(part func(part int)) float64 {
	runParts(c.parts, c.blas.threads(), len(c.x), part)
	return sumOrdered(c.partials)
}

// papPart leaves part's share of pᵀ(Ap).
//
//spmv:deterministic
func (c *CG) papPart(part int) {
	lo, hi := reducePart(len(c.x), part)
	p, ap := c.p[lo:hi], c.ap[lo:hi]
	var s float64
	for i := range p {
		s += float64(p[i] * ap[i])
	}
	c.partials[part] = s
}

// updatePart applies x += α·p and r += (−α)·Ap to part's elements and
// leaves its share of the new rᵀr.
//
//spmv:deterministic
func (c *CG) updatePart(part int) {
	lo, hi := reducePart(len(c.x), part)
	x, r, p, ap := c.x[lo:hi], c.r[lo:hi], c.p[lo:hi], c.ap[lo:hi]
	alpha, negAlpha := c.alpha, -c.alpha
	var s float64
	for i := range x {
		x[i] += float64(alpha * p[i])
		ri := r[i] + float64(negAlpha*ap[i])
		r[i] = ri
		s += float64(ri * ri)
	}
	c.partials[part] = s
}

// directionPart applies p = r + β·p to part's elements.
//
//spmv:deterministic
func (c *CG) directionPart(part int) {
	lo, hi := reducePart(len(c.x), part)
	r, p := c.r[lo:hi], c.p[lo:hi]
	beta := c.beta
	for i := range p {
		p[i] = r[i] + float64(beta*p[i])
	}
}

func (c *CG) fail(err error) (bool, error) {
	c.status = Failed
	c.err = err
	return true, err
}

// Solve steps until the solver leaves Running and returns the terminal
// error, if any.
func (c *CG) Solve() error {
	for {
		if done, err := c.Step(); done {
			return err
		}
	}
}

// X returns the current iterate (live storage; copy before mutating).
func (c *CG) X() []float64 { return c.x }

// Iters returns the number of completed steps.
func (c *CG) Iters() int { return c.iters }

// Status returns the solver's lifecycle state.
func (c *CG) Status() Status { return c.status }

// Err returns the terminal error of a Failed solver.
func (c *CG) Err() error { return c.err }

// Residual returns the latest relative residual ‖r‖/‖b‖.
func (c *CG) Residual() float64 {
	if c.bnorm == 0 {
		return 0
	}
	return math.Sqrt(c.rr) / c.bnorm
}

// History returns the relative residual after each completed step (live
// storage; copy before mutating).
func (c *CG) History() []float64 { return c.history }

func isFiniteVal(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
