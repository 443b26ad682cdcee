// Property-based tests of the iterative solvers: CG on random SPD
// matrices (suite twins from gen, symmetrized and diagonally shifted)
// must converge at every thread count, with bit-identical trajectories;
// power iteration must recover a known dominant eigenpair; the BLAS-1
// reductions must be thread-invariant. Runs under -race in CI.
package solve_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	spmv "repro"
	"repro/internal/solve"
)

// suiteSPD generates a paper-suite twin, symmetrizes it, and shifts the
// diagonal until the matrix is strictly diagonally dominant with a
// positive diagonal — a certificate of symmetric positive definiteness,
// whatever the generator produced.
func suiteSPD(t *testing.T, name string, scale float64, seed int64) *spmv.Matrix {
	t.Helper()
	m, err := spmv.GenerateSuite(name, scale, seed)
	if err != nil {
		t.Fatalf("GenerateSuite(%s): %v", name, err)
	}
	sym, err := spmv.Symmetrize(m)
	if err != nil {
		t.Fatalf("Symmetrize: %v", err)
	}
	rows, _ := sym.Dims()
	offAbs := make([]float64, rows)
	diag := make([]float64, rows)
	sym.Entries(func(i, j int, v float64) {
		if i == j {
			diag[i] += v
		} else {
			// |Σ dups| <= Σ|dups|: over-counting duplicates only makes the
			// shift more conservative.
			offAbs[i] += math.Abs(v)
		}
	})
	shift := 1.0
	for i := range offAbs {
		if need := 1 + offAbs[i] - diag[i]; need > shift {
			shift = need
		}
	}
	for i := 0; i < rows; i++ {
		if err := sym.Set(i, i, shift); err != nil {
			t.Fatalf("Set diag: %v", err)
		}
	}
	return sym
}

// symApply builds a thread-count-invariant Apply from the parallel
// symmetric operator (kernel.SymSweep's canonical reduction fixes its
// bits at every thread count).
func symApply(t *testing.T, m *spmv.Matrix, threads int) solve.Apply {
	t.Helper()
	op, err := spmv.CompileSymmetricParallel(m, threads)
	if err != nil {
		t.Fatalf("CompileSymmetricParallel(threads=%d): %v", threads, err)
	}
	return func(y, x []float64) error {
		clear(y)
		return op.MulAdd(y, x)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// residual computes ‖b − A·x‖/‖b‖ with an independent serial loop.
func residual(t *testing.T, apply solve.Apply, x, b []float64) float64 {
	t.Helper()
	ax := make([]float64, len(b))
	if err := apply(ax, x); err != nil {
		t.Fatalf("apply: %v", err)
	}
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr) / math.Sqrt(bb)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCGRandomSPD is the headline property: for random SPD systems, CG
// converges to the requested tolerance at threads 1/2/4, and the whole
// trajectory — residual history and final iterate — is bitwise identical
// across thread counts.
func TestCGRandomSPD(t *testing.T) {
	const tol = 1e-8
	cases := []struct {
		suite string
		scale float64
		seed  int64
	}{
		{"QCD", 0.008, 1},
		{"Economics", 0.004, 2},
		{"Epidemiology", 0.002, 3},
	}
	for _, tc := range cases {
		t.Run(tc.suite, func(t *testing.T) {
			m := suiteSPD(t, tc.suite, tc.scale, tc.seed)
			n, _ := m.Dims()
			b := randVec(rand.New(rand.NewSource(tc.seed)), n)
			var refHist, refX []float64
			for _, threads := range []int{1, 2, 4} {
				// det=true names the contract checked: the bits below.
				t.Run(fmt.Sprintf("det=true/threads=%d", threads), func(t *testing.T) {
					apply := symApply(t, m, threads)
					cg, err := solve.NewCG(apply, b, nil, solve.Options{
						Tol: tol, MaxIters: 3 * n, Threads: threads,
					})
					if err != nil {
						t.Fatalf("NewCG: %v", err)
					}
					if err := cg.Solve(); err != nil {
						t.Fatalf("Solve: %v", err)
					}
					if cg.Status() != solve.Converged {
						t.Fatalf("status %v after %d iters, residual %g", cg.Status(), cg.Iters(), cg.Residual())
					}
					if got := cg.Residual(); got > tol {
						t.Fatalf("reported residual %g > tol %g", got, tol)
					}
					// Independent residual check: the recurrence can drift
					// from the true residual, but not by much at 1e-8.
					if got := residual(t, apply, cg.X(), b); got > 100*tol {
						t.Fatalf("true residual %g, want <= %g", got, 100*tol)
					}
					if len(cg.History()) != cg.Iters() {
						t.Fatalf("history has %d entries, %d iters", len(cg.History()), cg.Iters())
					}
					if refHist == nil {
						refHist = append([]float64(nil), cg.History()...)
						refX = append([]float64(nil), cg.X()...)
						return
					}
					if !bitsEqual(refHist, cg.History()) {
						t.Fatalf("deterministic residual history differs from threads=1 bits")
					}
					if !bitsEqual(refX, cg.X()) {
						t.Fatalf("deterministic solution differs from threads=1 bits")
					}
				})
			}
		})
	}
}

// TestCGManufacturedSolution checks the solver against a known answer:
// b = A·x* must be solved back to x* within the tolerance's reach.
func TestCGManufacturedSolution(t *testing.T) {
	m := suiteSPD(t, "QCD", 0.008, 7)
	n, _ := m.Dims()
	apply := symApply(t, m, 2)
	xStar := randVec(rand.New(rand.NewSource(7)), n)
	b := make([]float64, n)
	if err := apply(b, xStar); err != nil {
		t.Fatal(err)
	}
	cg, err := solve.NewCG(apply, b, nil, solve.Options{Tol: 1e-10, MaxIters: 3 * n, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Solve(); err != nil {
		t.Fatal(err)
	}
	var errN, refN float64
	for i, v := range cg.X() {
		d := v - xStar[i]
		errN += d * d
		refN += xStar[i] * xStar[i]
	}
	if rel := math.Sqrt(errN / refN); rel > 1e-6 {
		t.Fatalf("relative solution error %g", rel)
	}
}

// TestCGWarmStart: a non-zero initial guess must form the true initial
// residual (one Apply in the constructor) and still converge; starting at
// the exact solution converges without stepping.
func TestCGWarmStart(t *testing.T) {
	m := suiteSPD(t, "QCD", 0.008, 9)
	n, _ := m.Dims()
	apply := symApply(t, m, 1)
	xStar := randVec(rand.New(rand.NewSource(9)), n)
	b := make([]float64, n)
	if err := apply(b, xStar); err != nil {
		t.Fatal(err)
	}
	cg, err := solve.NewCG(apply, b, xStar, solve.Options{Tol: 1e-8, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cg.Status() != solve.Converged || cg.Iters() != 0 {
		t.Fatalf("exact warm start: status %v after %d iters", cg.Status(), cg.Iters())
	}
	perturbed := append([]float64(nil), xStar...)
	for i := range perturbed {
		perturbed[i] += 0.01 * perturbed[i]
	}
	cg, err = solve.NewCG(apply, b, perturbed, solve.Options{Tol: 1e-8, MaxIters: 3 * n})
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Solve(); err != nil {
		t.Fatal(err)
	}
	if cg.Status() != solve.Converged {
		t.Fatalf("warm start did not converge: %v", cg.Status())
	}
}

// TestCGBreakdown: a negative definite operator must fail fast with a
// breakdown diagnosis, not wander.
func TestCGBreakdown(t *testing.T) {
	neg := func(y, x []float64) error {
		for i := range y {
			y[i] = -x[i]
		}
		return nil
	}
	b := []float64{1, 2, 3}
	cg, err := solve.NewCG(neg, b, nil, solve.Options{Tol: 1e-8, MaxIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	done, err := cg.Step()
	if !done || err == nil || cg.Status() != solve.Failed {
		t.Fatalf("want breakdown failure, got done=%v err=%v status=%v", done, err, cg.Status())
	}
}

// TestCGBudget: with tol 0 the solver runs exactly MaxIters steps and
// reports BudgetExhausted.
func TestCGBudget(t *testing.T) {
	m := suiteSPD(t, "QCD", 0.008, 11)
	n, _ := m.Dims()
	apply := symApply(t, m, 1)
	b := randVec(rand.New(rand.NewSource(11)), n)
	cg, err := solve.NewCG(apply, b, nil, solve.Options{Tol: 0, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Solve(); err != nil {
		t.Fatal(err)
	}
	if cg.Status() != solve.BudgetExhausted || cg.Iters() != 5 {
		t.Fatalf("status %v after %d iters, want budget_exhausted after 5", cg.Status(), cg.Iters())
	}
	// Stepping a finished solver is a no-op.
	if done, err := cg.Step(); !done || err != nil {
		t.Fatalf("Step after finish: done=%v err=%v", done, err)
	}
	if cg.Iters() != 5 {
		t.Fatalf("no-op step advanced iters to %d", cg.Iters())
	}
}

// TestCGValidation covers constructor rejections.
func TestCGValidation(t *testing.T) {
	id := func(y, x []float64) error { copy(y, x); return nil }
	if _, err := solve.NewCG(id, nil, nil, solve.Options{}); err == nil {
		t.Fatal("empty b accepted")
	}
	if _, err := solve.NewCG(id, []float64{1}, []float64{1, 2}, solve.Options{}); err == nil {
		t.Fatal("mismatched x0 accepted")
	}
	if _, err := solve.NewCG(id, []float64{1}, nil, solve.Options{Tol: math.NaN()}); err == nil {
		t.Fatal("NaN tol accepted")
	}
	if _, err := solve.NewCG(id, []float64{1}, nil, solve.Options{Tol: -1}); err == nil {
		t.Fatal("negative tol accepted")
	}
	if _, err := solve.NewCG(id, []float64{math.NaN()}, nil, solve.Options{}); err == nil {
		t.Fatal("NaN b accepted")
	}
	// b = 0 converges at construction to x = 0 — also from a non-zero
	// initial guess, since 0 is the unique SPD solution (returning the
	// guess itself would be a wrong answer labeled converged).
	for _, x0 := range [][]float64{nil, {3, -4}} {
		cg, err := solve.NewCG(id, []float64{0, 0}, x0, solve.Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if cg.Status() != solve.Converged || cg.X()[0] != 0 || cg.X()[1] != 0 {
			t.Fatalf("zero rhs (x0=%v): status %v x %v", x0, cg.Status(), cg.X())
		}
		if cg.Residual() != 0 {
			t.Fatalf("zero rhs (x0=%v): residual %g", x0, cg.Residual())
		}
	}
}

// TestPowerDominantEigenpair: on diag(1..n) the dominant eigenvalue is n
// and the eigenvector is e_n; deterministic trajectories are bitwise
// thread-invariant (the diagonal Apply is element-wise, hence exact).
func TestPowerDominantEigenpair(t *testing.T) {
	const n = 500
	apply := func(y, x []float64) error {
		for i := range y {
			y[i] = float64(i+1) * x[i]
		}
		return nil
	}
	var refHist []float64
	for _, threads := range []int{1, 2, 4} {
		pw, err := solve.NewPower(apply, n, nil, solve.Options{
			Tol: 1e-10, MaxIters: 20000, Threads: threads,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.Solve(); err != nil {
			t.Fatal(err)
		}
		if pw.Status() != solve.Converged {
			t.Fatalf("threads=%d: status %v after %d iters (residual %g)", threads, pw.Status(), pw.Iters(), pw.Residual())
		}
		if got := pw.Eigenvalue(); math.Abs(got-n) > 1e-6*n {
			t.Fatalf("threads=%d: eigenvalue %g, want %d", threads, got, n)
		}
		if got := math.Abs(pw.Vector()[n-1]); math.Abs(got-1) > 1e-4 {
			t.Fatalf("threads=%d: |v[n-1]| = %g, want 1", threads, got)
		}
		if refHist == nil {
			refHist = append([]float64(nil), pw.History()...)
		} else if !bitsEqual(refHist, pw.History()) {
			t.Fatalf("threads=%d: deterministic power trajectory differs from threads=1 bits", threads)
		}
	}
}

// TestPowerOnSuiteTwin: the symmetrized suite twin's dominant eigenvalue
// must match an independent dense-ish estimate — here, agreement between
// converged power iteration and the Rayleigh quotient recomputed by hand.
func TestPowerOnSuiteTwin(t *testing.T) {
	m := suiteSPD(t, "QCD", 0.008, 13)
	n, _ := m.Dims()
	apply := symApply(t, m, 2)
	pw, err := solve.NewPower(apply, n, nil, solve.Options{Tol: 1e-9, MaxIters: 50000, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pw.Solve(); err != nil {
		t.Fatal(err)
	}
	if pw.Status() != solve.Converged {
		t.Fatalf("status %v after %d iters", pw.Status(), pw.Iters())
	}
	q := pw.Vector()
	aq := make([]float64, n)
	if err := apply(aq, q); err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := range q {
		num += q[i] * aq[i]
		den += q[i] * q[i]
	}
	if got, want := pw.Eigenvalue(), num/den; math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Fatalf("eigenvalue %g vs recomputed Rayleigh quotient %g", got, want)
	}
}

// TestPowerValidation covers constructor rejections.
func TestPowerValidation(t *testing.T) {
	id := func(y, x []float64) error { copy(y, x); return nil }
	if _, err := solve.NewPower(id, 0, nil, solve.Options{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := solve.NewPower(id, 3, []float64{1}, solve.Options{}); err == nil {
		t.Fatal("mismatched v0 accepted")
	}
	if _, err := solve.NewPower(id, 2, []float64{0, 0}, solve.Options{}); err == nil {
		t.Fatal("zero v0 accepted")
	}
	// A·q = 0 must fail, not divide by zero.
	zero := func(y, x []float64) error { clear(y); return nil }
	pw, err := solve.NewPower(zero, 2, []float64{1, 0}, solve.Options{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if done, err := pw.Step(); !done || err == nil || pw.Status() != solve.Failed {
		t.Fatalf("null-space start: done=%v err=%v status=%v", done, err, pw.Status())
	}
}

// TestBLASThreadInvariance: reductions are bitwise identical at every
// thread count and stay within a reassociation bound of the sequential
// sum.
func TestBLASThreadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 1023, 1024, 1025, 100000} {
		x, y := randVec(rng, n), randVec(rng, n)
		ref := solve.BLAS{Threads: 1}.Dot(x, y)
		var seq float64
		for i := range x {
			seq += x[i] * y[i]
		}
		var absSum float64
		for i := range x {
			absSum += math.Abs(x[i] * y[i])
		}
		tolerance := 4 * float64(n) * 1e-16 * absSum
		for _, threads := range []int{2, 3, 4, 8} {
			blas := solve.BLAS{Threads: threads}
			if got := blas.Dot(x, y); math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("n=%d threads=%d: Dot %x != %x", n, threads, math.Float64bits(got), math.Float64bits(ref))
			}
			if got := blas.Dot(x, y); math.Abs(got-seq) > tolerance {
				t.Fatalf("n=%d threads=%d: Dot %g vs sequential %g (tol %g)", n, threads, got, seq, tolerance)
			}
		}
	}
}
