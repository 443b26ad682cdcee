package server

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	spmv "repro"
)

// spdMatrix builds a random exactly-symmetric, strictly diagonally
// dominant (hence positive definite) matrix: mirrored off-diagonal pairs
// plus a dominance shift on the diagonal.
func spdMatrix(t testing.TB, n, pairs int, seed int64) *spmv.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := spmv.NewMatrix(n, n)
	diag := make([]float64, n)
	for k := 0; k < pairs; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := rng.NormFloat64()
		if err := m.Set(i, j, v); err != nil {
			t.Fatal(err)
		}
		if err := m.Set(j, i, v); err != nil {
			t.Fatal(err)
		}
		diag[i] += math.Abs(v)
		diag[j] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		if err := m.Set(i, i, diag[i]+1); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// poissonMatrix assembles the 2D 5-point Poisson stencil on a side×side
// grid: symmetric positive definite with condition number O(side²), so CG
// takes hundreds of iterations — the slow-converging fixture the
// mid-solve promotion test needs.
func poissonMatrix(t testing.TB, side int) *spmv.Matrix {
	t.Helper()
	n := side * side
	m := spmv.NewMatrix(n, n)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := at(r, c)
			if err := m.Set(i, i, 4); err != nil {
				t.Fatal(err)
			}
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				rr, cc := r+d[0], c+d[1]
				if rr >= 0 && rr < side && cc >= 0 && cc < side {
					if err := m.Set(i, at(rr, cc), -1); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return m
}

// longRunningSolve is a session that stays running until cancelled: power
// iteration (which cannot break down on an SPD matrix) with a zero
// tolerance and the maximum budget.
func longRunningSolve(n int, seed int64) SolveRequest {
	return SolveRequest{Method: "power", X0: testVector(n, seed), Tol: 0, MaxIters: MaxSolveIters}
}

// trueResidual recomputes ‖b − A·x‖/‖b‖ from the assembly triplets,
// independent of every kernel under test.
func trueResidual(m *spmv.Matrix, x, b []float64) float64 {
	ax := make([]float64, len(b))
	m.Entries(func(i, j int, v float64) { ax[i] += v * x[j] })
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr) / math.Sqrt(bb)
}

// waitDone polls a session to a terminal state.
func waitDone(t *testing.T, s *Server, sid string) SolveStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.SolveStatus(sid, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("SolveStatus(%s): %v", sid, err)
		}
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still running after 30s: %+v", sid, st)
		}
	}
}

// TestSolveSessionCG runs a CG session end to end in process: converges
// on an SPD matrix served from symmetric storage (TrySymmetric), reports a residual
// history, and the returned solution satisfies the system under an
// independent triplet check.
func TestSolveSessionCG(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.Workers = 2
	cfg.MaxBatch = 4
	s := New(cfg)
	defer s.Close()

	const n = 500
	m := spdMatrix(t, n, 4*n, 1)
	if _, err := s.Register("a", "spd", m); err != nil {
		t.Fatal(err)
	}
	b := testVector(n, 99)
	st, err := s.SolveOpts("a", SolveRequest{Method: "cg", B: b, Tol: 1e-9, MaxIters: 5000}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" && st.State != "converged" {
		t.Fatalf("admission state %q", st.State)
	}
	if st.ModeledBytesPerIter <= 0 {
		t.Fatalf("modeled bytes per iteration %d, want > 0", st.ModeledBytesPerIter)
	}
	fin := waitDone(t, s, st.SID)
	if fin.State != "converged" {
		t.Fatalf("state %q after %d iters (residual %g, err %q)", fin.State, fin.Iters, fin.Residual, fin.Error)
	}
	if fin.Residual > 1e-9 {
		t.Fatalf("residual %g > tol", fin.Residual)
	}
	if len(fin.History) != fin.Iters || fin.Iters == 0 {
		t.Fatalf("history %d entries, iters %d", len(fin.History), fin.Iters)
	}
	if len(fin.X) != n {
		t.Fatalf("len(x) = %d", len(fin.X))
	}
	if got := trueResidual(m, fin.X, b); got > 1e-7 {
		t.Fatalf("independent residual %g", got)
	}
	stats := s.Stats()
	if stats.SolveSessions != 1 || stats.SolveIters < uint64(fin.Iters) {
		t.Fatalf("stats sessions=%d iters=%d, want 1 and >= %d", stats.SolveSessions, stats.SolveIters, fin.Iters)
	}
	// The finished session stays resident for collection.
	list := s.Sessions()
	if len(list) != 1 || list[0].SID != st.SID || list[0].History != nil || list[0].X != nil {
		t.Fatalf("session list %+v", list)
	}
}

// TestSolveSessionPower runs a power-iteration session on the same SPD
// matrix and cross-checks the eigenvalue against a hand-computed Rayleigh
// quotient of the returned vector.
func TestSolveSessionPower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.Workers = 2
	s := New(cfg)
	defer s.Close()

	const n = 300
	m := spdMatrix(t, n, 3*n, 2)
	if _, err := s.Register("a", "spd", m); err != nil {
		t.Fatal(err)
	}
	st, err := s.SolveOpts("a", SolveRequest{Method: "power", Tol: 1e-8, MaxIters: 50000}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, s, st.SID)
	if fin.State != "converged" {
		t.Fatalf("state %q after %d iters (residual %g, err %q)", fin.State, fin.Iters, fin.Residual, fin.Error)
	}
	aq := make([]float64, n)
	m.Entries(func(i, j int, v float64) { aq[i] += v * fin.X[j] })
	var num, den float64
	for i := range fin.X {
		num += fin.X[i] * aq[i]
		den += fin.X[i] * fin.X[i]
	}
	if want := num / den; math.Abs(fin.Eigenvalue-want) > 1e-6*math.Abs(want) {
		t.Fatalf("eigenvalue %g vs recomputed %g", fin.Eigenvalue, want)
	}
}

// TestSolveValidation covers the in-process admission rejections,
// including the non-JSON-expressible ones (NaN vectors).
func TestSolveValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()

	sym := spdMatrix(t, 40, 100, 3)
	if _, err := s.Register("sym", "spd", sym); err != nil {
		t.Fatal(err)
	}
	asym := testMatrix(t, 40, 40, 200, 4)
	if _, err := s.Register("asym", "general", asym); err != nil {
		t.Fatal(err)
	}
	rect := testMatrix(t, 30, 40, 200, 5)
	if _, err := s.Register("rect", "rect", rect); err != nil {
		t.Fatal(err)
	}
	b40 := testVector(40, 6)

	cases := []struct {
		name    string
		id      string
		req     SolveRequest
		sentry  error // checked with errors.Is when non-nil
		wantErr string
	}{
		{name: "unknown matrix", id: "nope", req: SolveRequest{Method: "cg", B: b40}, sentry: ErrUnknownMatrix},
		{name: "cg on asymmetric", id: "asym", req: SolveRequest{Method: "cg", B: b40}, sentry: ErrNotSymmetric},
		{name: "non-square", id: "rect", req: SolveRequest{Method: "cg", B: testVector(30, 7)}, wantErr: "square"},
		{name: "unknown method", id: "sym", req: SolveRequest{Method: "jacobi", B: b40}, wantErr: "unknown solver method"},
		{name: "missing b", id: "sym", req: SolveRequest{Method: "cg"}, wantErr: "len(b)"},
		{name: "short b", id: "sym", req: SolveRequest{Method: "cg", B: testVector(39, 8)}, wantErr: "len(b)"},
		{name: "nan b", id: "sym", req: SolveRequest{Method: "cg", B: append(testVector(39, 9), math.NaN())}, wantErr: "non-finite"},
		{name: "inf x0", id: "sym", req: SolveRequest{Method: "cg", B: b40, X0: append(testVector(39, 10), math.Inf(1))}, wantErr: "non-finite"},
		{name: "short x0", id: "sym", req: SolveRequest{Method: "cg", B: b40, X0: testVector(10, 11)}, wantErr: "len(x0)"},
		{name: "nan tol", id: "sym", req: SolveRequest{Method: "cg", B: b40, Tol: math.NaN()}, wantErr: "tolerance"},
		{name: "negative tol", id: "sym", req: SolveRequest{Method: "cg", B: b40, Tol: -1}, wantErr: "tolerance"},
		{name: "negative budget", id: "sym", req: SolveRequest{Method: "cg", B: b40, MaxIters: -5}, wantErr: "negative step budget"},
		{name: "oversized budget", id: "sym", req: SolveRequest{Method: "cg", B: b40, MaxIters: MaxSolveIters + 1}, wantErr: "cap"},
		{name: "power with b", id: "sym", req: SolveRequest{Method: "power", B: b40}, wantErr: "not b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.SolveOpts(tc.id, tc.req, SolveOptions{})
			if err == nil {
				t.Fatal("accepted")
			}
			if tc.sentry != nil && !errors.Is(err, tc.sentry) {
				t.Fatalf("error %v, want %v", err, tc.sentry)
			}
			if tc.wantErr != "" && !contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q, want substring %q", err, tc.wantErr)
			}
		})
	}
	if got := s.Stats().SolveSessions; got != 0 {
		t.Fatalf("rejected requests created %d sessions", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSolveSessionCapAndEviction: the resident cap rejects only when
// every session is running; finished sessions are evicted oldest-first to
// admit new ones, and cancellation frees capacity.
func TestSolveSessionCapAndEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.MaxSessions = 2
	s := New(cfg)
	defer s.Close()

	const n = 400
	m := spdMatrix(t, n, 4*n, 12)
	if _, err := s.Register("a", "spd", m); err != nil {
		t.Fatal(err)
	}
	b := testVector(n, 13)

	s1, err := s.SolveOpts("a", longRunningSolve(n, 41), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s.SolveOpts("a", longRunningSolve(n, 42), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveOpts("a", longRunningSolve(n, 43), SolveOptions{}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third session: %v, want ErrTooManySessions", err)
	}
	// Cancel one: capacity frees immediately (cancel removes).
	if _, err := s.CancelSolve(s1.SID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveStatus(s1.SID, 0); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("cancelled session still resident: %v", err)
	}
	s3, err := s.SolveOpts("a", SolveRequest{Method: "cg", B: b, Tol: 1e-6, MaxIters: 5000}, SolveOptions{})
	if err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	// Let s3 finish; a finished resident session is evicted (not
	// rejected) when the cap is hit again.
	waitDone(t, s, s3.SID)
	s4, err := s.SolveOpts("a", longRunningSolve(n, 44), SolveOptions{})
	if err != nil {
		t.Fatalf("eviction of finished session failed: %v", err)
	}
	if _, err := s.SolveStatus(s3.SID, 0); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("finished session not evicted: %v", err)
	}
	for _, sid := range []string{s2.SID, s4.SID} {
		if _, err := s.CancelSolve(sid); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSolveCloseCancels: Close cancels running sessions and drains their
// goroutines without deadlock.
func TestSolveCloseCancels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	s := New(cfg)
	const n = 400
	m := spdMatrix(t, n, 4*n, 14)
	if _, err := s.Register("a", "spd", m); err != nil {
		t.Fatal(err)
	}
	st, err := s.SolveOpts("a", longRunningSolve(n, 15), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// After Close the session is terminal; its goroutine has exited.
	got, err := s.SolveStatus(st.SID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "cancelled" {
		t.Fatalf("state %q after Close, want cancelled", got.State)
	}
	if _, err := s.SolveOpts("a", SolveRequest{Method: "cg", B: testVector(n, 15)}, SolveOptions{}); err == nil {
		t.Fatal("Solve accepted after Close")
	}
}

// TestSolveBudgetExhausted: tol 0 runs exactly the budget and reports it.
func TestSolveBudgetExhausted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()
	const n = 100
	m := spdMatrix(t, n, 300, 16)
	if _, err := s.Register("a", "spd", m); err != nil {
		t.Fatal(err)
	}
	st, err := s.SolveOpts("a", SolveRequest{Method: "cg", B: testVector(n, 17), Tol: 0, MaxIters: 7}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, s, st.SID)
	if fin.State != "budget_exhausted" || fin.Iters != 7 {
		t.Fatalf("state %q after %d iters, want budget_exhausted after 7", fin.State, fin.Iters)
	}
}
