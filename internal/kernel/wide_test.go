package kernel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/partition"
)

func wideTestCSR(t *testing.T, rows, cols, nnz int, seed int64) *matrix.CSR32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		if err := coo.Append(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	csr, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// TestNewWideValidation pins the constructor error paths.
func TestNewWideValidation(t *testing.T) {
	csr := wideTestCSR(t, 10, 10, 30, 1)
	if _, err := NewWide(csr, 0); err == nil {
		t.Error("width 0 accepted")
	}
	w, err := NewWide(csr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Width() != 2 || w.Name() == "" {
		t.Errorf("Width()=%d Name()=%q", w.Width(), w.Name())
	}
	if err := w.MulAddBlock(make([]float64, 10), make([]float64, 20)); err == nil {
		t.Error("short y block accepted")
	}
	if err := w.MulAddBlock(make([]float64, 20), make([]float64, 19)); err == nil {
		t.Error("short x block accepted")
	}
}

// TestWideParallelExec checks the width-k view of a parallel kernel both
// on its own goroutines and through an external executor, against the
// bits of the whole-matrix CSR view (NewWide), and with concurrent sweeps
// sharing the kernel (the serving pattern).
func TestWideParallelExec(t *testing.T) {
	csr := wideTestCSR(t, 200, 180, 2500, 2)
	part, err := partition.ByNNZ(csr.RowPtr, 3)
	if err != nil {
		t.Fatal(err)
	}
	var parts []Part
	for _, r := range part.Ranges {
		sub := csr.Submatrix(r.Lo, r.Hi, 0, csr.C)
		parts = append(parts, Part{Range: r, Enc: sub})
	}
	p, err := NewParallel(csr.R, csr.C, parts)
	if err != nil {
		t.Fatal(err)
	}
	const width = 4
	wp, err := p.Wide(width)
	if err != nil {
		t.Fatal(err)
	}

	whole, err := NewWide(csr, width)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, csr.C*width)
	rng := rand.New(rand.NewSource(3))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, csr.R*width)
	if err := whole.MulAddBlock(want, x); err != nil {
		t.Fatal(err)
	}

	check := func(name string, got []float64) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d not bitwise equal to the whole-matrix view", name, i)
			}
		}
	}
	y := make([]float64, csr.R*width)
	if err := wp.MulAddBlock(y, x); err != nil {
		t.Fatal(err)
	}
	check("own-goroutines", y)

	// External executor (a worker pool stand-in running tasks serially).
	clear(y)
	if err := wp.MulAddBlockExec(y, x, serialExec); err != nil {
		t.Fatal(err)
	}
	check("external-exec", y)

	if err := wp.MulAddBlock(make([]float64, 1), x); err == nil {
		t.Error("short y block accepted")
	}

	// Concurrent sweeps over one shared kernel (pooled pad scratch).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			yg := make([]float64, csr.R*width)
			for i := 0; i < 10; i++ {
				clear(yg)
				if err := wp.MulAddBlock(yg, x); err != nil {
					t.Error(err)
					return
				}
			}
			check("concurrent", yg)
		}()
	}
	wg.Wait()
}
