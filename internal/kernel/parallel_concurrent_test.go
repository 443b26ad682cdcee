package kernel_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/tune"
)

// TestParallelConcurrentMulAdd runs one tuned two-part kernel — what
// spmv.CompileParallel builds — from several goroutines at once, each with
// its own x. The FEM twin tunes to register blocks whose padded extents
// pass the part boundaries, so every call needs padded copies of x and of
// each part's y; when calls shared those copies they overwrote each
// other's vectors. Every result must equal the serial tuned kernel's bit
// for bit.
func TestParallelConcurrentMulAdd(t *testing.T) {
	coo, err := gen.GenerateByName("FEM/Cantilever", 0.013, 7)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := tune.TuneParallel(csr, tune.DefaultOptions(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialTwin(pk)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 6, 40
	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, goroutines)
	want := make([][]float64, goroutines)
	for g := range xs {
		xs[g] = make([]float64, csr.C)
		for j := range xs[g] {
			xs[g][j] = rng.NormFloat64()
		}
		want[g] = make([]float64, csr.R)
		if err := serial.MulAdd(want[g], xs[g]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wrong := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := make([]float64, csr.R)
			for r := 0; r < rounds; r++ {
				clear(y)
				if err := pk.MulAdd(y, xs[g]); err != nil {
					t.Error(err)
					return
				}
				for i := range y {
					if math.Float64bits(y[i]) != math.Float64bits(want[g][i]) {
						wrong[g]++
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, n := range wrong {
		if n > 0 {
			t.Errorf("goroutine %d: %d of %d concurrent results differ from the serial kernel", g, n, rounds)
		}
	}
}

// serialTwin assembles the same encoded parts into a kernel that runs them
// one after another on the caller's goroutine: the serial reference.
func serialTwin(pk *kernel.Parallel) (*kernel.Parallel, error) {
	parts := pk.Parts()
	rows := parts[len(parts)-1].Range.Hi
	_, cols := parts[0].Enc.Dims()
	s, err := kernel.NewParallel(rows, cols, parts)
	if err != nil {
		return nil, err
	}
	s.SetSequential(true)
	return s, nil
}
