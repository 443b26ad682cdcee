package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// randomSymCOO builds a random numerically symmetric n×n COO matrix.
func randomSymCOO(rng *rand.Rand, n, pairs int) *matrix.COO {
	m := matrix.NewCOO(n, n)
	if max := n * (n + 1) / 2; pairs > max {
		pairs = max
	}
	type pos struct{ r, c int }
	seen := map[pos]bool{}
	for len(seen) < pairs {
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		if seen[pos{i, j}] {
			continue
		}
		seen[pos{i, j}] = true
		v := rng.NormFloat64()
		_ = m.Append(i, j, v)
		if i != j {
			_ = m.Append(j, i, v)
		}
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestSymSweepMatchesReference checks the parallel kernel against the
// plain COO multiply within floating-point reassociation tolerance.
func TestSymSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(300)
		m := randomSymCOO(rng, n, rng.Intn(4*n+1))
		sym, err := matrix.NewSymCSR(m)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := NewSymSweep(sym, 4)
		if err != nil {
			t.Fatal(err)
		}
		x := randVec(rng, n)
		want := make([]float64, n)
		if err := m.MulAdd(want, x); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := sw.MulAdd(got, x); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d row %d: %g vs %g", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSymSweepBitDeterminism is the core contract: the result bits are
// invariant to the thread count (1/2/4) and each lane of a multi-RHS
// sweep (widths 1 and 4) equals the single-vector sweep exactly.
func TestSymSweepBitDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		n := 1 + rng.Intn(500)
		m := randomSymCOO(rng, n, rng.Intn(6*n+1))
		sym, err := matrix.NewSymCSR(m)
		if err != nil {
			t.Fatal(err)
		}
		xs := [][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}

		// Reference: serial kernel, width 1, per vector.
		serial, err := NewSymSweep(sym, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, len(xs))
		for v, x := range xs {
			want[v] = make([]float64, n)
			if err := serial.MulAdd(want[v], x); err != nil {
				t.Fatal(err)
			}
		}

		for _, threads := range []int{1, 2, 4} {
			sw, err := NewSymSweep(sym, threads)
			if err != nil {
				t.Fatal(err)
			}
			// Width 1, several repetitions to expose scheduling races.
			for rep := 0; rep < 3; rep++ {
				got := make([]float64, n)
				if err := sw.MulAdd(got, xs[0]); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[0][i] {
						t.Fatalf("threads=%d rep=%d row %d: %x vs %x",
							threads, rep, i, got[i], want[0][i])
					}
				}
			}
			// Width 4: every lane must reproduce its width-1 bits.
			xb := interleave(xs)
			yb := make([]float64, n*4)
			if err := sw.mulAdd(yb, xb, 4, nil); err != nil {
				t.Fatal(err)
			}
			ys := deinterleave(yb, 4)
			for v := range ys {
				for i := range ys[v] {
					if ys[v][i] != want[v][i] {
						t.Fatalf("threads=%d width=4 lane %d row %d: %x vs %x",
							threads, v, i, ys[v][i], want[v][i])
					}
				}
			}
		}
	}
}

// TestSymSweepAccumulates checks y ← y + A·x semantics over nonzero y.
func TestSymSweepAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	m := randomSymCOO(rng, n, 200)
	sym, err := matrix.NewSymCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSymSweep(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, n)
	y0 := randVec(rng, n)
	want := make([]float64, n)
	copy(want, y0)
	if err := m.MulAdd(want, x); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	copy(got, y0)
	if err := sw.MulAdd(got, x); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("row %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestSymSweepShapeErrors(t *testing.T) {
	m := randomSymCOO(rand.New(rand.NewSource(4)), 10, 30)
	sym, err := matrix.NewSymCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSymSweep(sym, 0); err == nil {
		t.Error("threads=0 accepted")
	}
	if _, err := NewSymSweep(nil, 1); err == nil {
		t.Error("nil matrix accepted")
	}
	sw, err := NewSymSweep(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.MulAdd(make([]float64, 9), make([]float64, 10)); err == nil {
		t.Error("short y accepted")
	}
	if err := sw.mulAdd(make([]float64, 40), make([]float64, 30), 4, nil); err == nil {
		t.Error("short x block accepted")
	}
	if err := sw.mulAdd(make([]float64, 10), make([]float64, 10), 0, nil); err == nil {
		t.Error("width 0 accepted")
	}
}

// TestSymSweepConcurrentUse hammers one kernel from many goroutines; the
// per-call scratch draw must keep concurrent sweeps independent.
func TestSymSweepConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	m := randomSymCOO(rng, n, 1200)
	sym, err := matrix.NewSymCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSymSweep(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, n)
	want := make([]float64, n)
	if err := sw.MulAdd(want, x); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for rep := 0; rep < 20; rep++ {
				got := make([]float64, n)
				if err := sw.MulAdd(got, x); err != nil {
					done <- err
					return
				}
				for i := range got {
					if got[i] != want[i] {
						done <- errMismatch
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent sweep diverged")

type errorString string

func (e errorString) Error() string { return string(e) }

// poisson2D is the 5-point Laplacian on a side×side grid in upper-triangle
// storage: the symmetric matrix the shard-cg workload solves.
func poisson2D(tb testing.TB, side int) *matrix.SymCSR {
	tb.Helper()
	n := side * side
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		_ = coo.Append(i, i, 4)
		if i%side+1 < side {
			_ = coo.Append(i, i+1, -1)
			_ = coo.Append(i+1, i, -1)
		}
		if i+side < n {
			_ = coo.Append(i, i+side, -1)
			_ = coo.Append(i+side, i, -1)
		}
	}
	csr, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		tb.Fatal(err)
	}
	sym, err := matrix.SymFromCSR(csr)
	if err != nil {
		tb.Fatal(err)
	}
	return sym
}

// BenchmarkSymSweep times one two-phase symmetric sweep at 2 threads over
// Poisson grids of side 150 and 600, at widths 1, 2, 4 and 8, with the
// kernel's own scheduling (exec=default: each phase through Run) and with
// every task run in order on the caller (exec=serial), which isolates the
// scan and reduction from the fork-join.
func BenchmarkSymSweep(b *testing.B) {
	for _, side := range []int{150, 600} {
		sw, err := NewSymSweep(poisson2D(b, side), 2)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for _, width := range []int{1, 2, 4, 8} {
			w, err := sw.Wide(width)
			if err != nil {
				b.Fatal(err)
			}
			x := randVec(rng, side*side*width)
			y := make([]float64, side*side*width)
			for _, ex := range []struct {
				name string
				exec Exec
			}{{"default", nil}, {"serial", serialExec}} {
				b.Run(fmt.Sprintf("n=%d/width=%d/exec=%s", side, width, ex.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if err := w.MulAddBlockExec(y, x, ex.exec); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
