package solve

import (
	"fmt"
	"math"
)

// Power is a power-iteration stepper estimating the dominant eigenpair of
// a general square operator: per step one Apply, a Rayleigh quotient, an
// eigen-residual norm, and a renormalization — the PageRank-style workload
// that, like CG, amortizes one matrix stream per iteration.
type Power struct {
	apply Apply
	blas  BLAS
	opt   Options

	q, aq, tmp []float64
	lambda     float64
	iters      int
	status     Status
	err        error
	history    []float64 // relative eigen-residual after each step
}

// NewPower prepares a power iteration of dimension n starting from v0 (a
// deterministic pseudo-random unit vector when nil — fixed bits for every
// caller, so trajectories are reproducible without shipping a start
// vector).
func NewPower(apply Apply, n int, v0 []float64, opt Options) (*Power, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("solve: dimension %d", n)
	}
	if v0 != nil && len(v0) != n {
		return nil, fmt.Errorf("solve: len(v0)=%d, n=%d", len(v0), n)
	}
	p := &Power{
		apply: apply,
		blas:  BLAS{Threads: opt.Threads},
		opt:   opt,
		q:     make([]float64, n),
		aq:    make([]float64, n),
		tmp:   make([]float64, n),
	}
	if v0 != nil {
		copy(p.q, v0)
	} else {
		// SplitMix64 from a fixed seed: full-period, dimension-only bits.
		state := uint64(0x9e3779b97f4a7c15)
		for i := range p.q {
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			p.q[i] = float64(float64(z>>11)/float64(1<<53)) - 0.5
		}
	}
	norm := p.blas.Norm2(p.q)
	if !isFiniteVal(norm) || norm == 0 {
		return nil, fmt.Errorf("solve: start vector has norm %g", norm)
	}
	p.blas.Scale(1/norm, p.q)
	return p, nil
}

// Step runs one power iteration, returning done = true once the solver
// has left Running.
func (p *Power) Step() (done bool, err error) {
	if p.status != Running {
		return true, p.err
	}
	clear(p.aq)
	if err := p.apply(p.aq, p.q); err != nil {
		return p.fail(fmt.Errorf("solve: apply: %w", err))
	}
	// q is unit, so the Rayleigh quotient is qᵀ(Aq).
	p.lambda = p.blas.Dot(p.q, p.aq)
	copy(p.tmp, p.aq)
	p.blas.Axpy(-p.lambda, p.q, p.tmp)
	resid := p.blas.Norm2(p.tmp) / math.Max(math.Abs(p.lambda), 1)
	p.iters++
	p.history = append(p.history, resid)
	if !isFiniteVal(resid) || !isFiniteVal(p.lambda) {
		return p.fail(fmt.Errorf("solve: power iteration diverged at iteration %d", p.iters))
	}
	norm := p.blas.Norm2(p.aq)
	if norm == 0 {
		return p.fail(fmt.Errorf("solve: A·q vanished at iteration %d (start vector in the null space?)", p.iters))
	}
	p.blas.Scale(1/norm, p.aq)
	p.q, p.aq = p.aq, p.q
	switch {
	case p.opt.Tol > 0 && resid <= p.opt.Tol:
		p.status = Converged
	case p.iters >= p.opt.MaxIters:
		p.status = BudgetExhausted
	}
	return p.status != Running, nil
}

func (p *Power) fail(err error) (bool, error) {
	p.status = Failed
	p.err = err
	return true, err
}

// Solve steps until the solver leaves Running and returns the terminal
// error, if any.
func (p *Power) Solve() error {
	for {
		if done, err := p.Step(); done {
			return err
		}
	}
}

// Eigenvalue returns the latest Rayleigh-quotient estimate of the
// dominant eigenvalue.
func (p *Power) Eigenvalue() float64 { return p.lambda }

// Vector returns the current unit eigenvector estimate (live storage;
// copy before mutating).
func (p *Power) Vector() []float64 { return p.q }

// Iters returns the number of completed steps.
func (p *Power) Iters() int { return p.iters }

// Status returns the solver's lifecycle state.
func (p *Power) Status() Status { return p.status }

// Err returns the terminal error of a Failed solver.
func (p *Power) Err() error { return p.err }

// Residual returns the latest relative eigen-residual, or +Inf before the
// first step.
func (p *Power) Residual() float64 {
	if len(p.history) == 0 {
		return math.Inf(1)
	}
	return p.history[len(p.history)-1]
}

// History returns the relative eigen-residual after each completed step
// (live storage; copy before mutating).
func (p *Power) History() []float64 { return p.history }
