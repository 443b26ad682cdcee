package kernel_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/partition"
	"repro/internal/tune"
)

// TestParallelConcurrentMulAdd runs one compiled kernel from several
// goroutines at once, each with its own x. Every kernel here reads or
// writes past the matrix edge, so every call needs padded copies of x or
// of y; when calls shared those copies they overwrote each other's
// vectors. The cases are a tuned two-part kernel — what
// spmv.CompileParallel builds; the FEM twin tunes to register blocks
// whose padded extents pass the part boundaries — and serial kernels from
// Compile: BCSR 4×4 over 63 columns, BCOO over ragged edges, and a
// cache-blocked matrix whose last tile is padded. The §4.3 study kernels
// join them, on the LP twin: ParallelColumns' private destination slabs
// and SegmentedScan's boundary partials must be each call's own. Every
// result must equal the kernel's own single-goroutine answer bit for bit.
func TestParallelConcurrentMulAdd(t *testing.T) {
	coo, err := gen.GenerateByName("FEM/Cantilever", 0.013, 7)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tune.NewPlan(csr, tune.DefaultOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := plan.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kernel.NewParallel(csr.R, csr.C, tuned)
	if err != nil {
		t.Fatal(err)
	}
	ragged := randomCSR(t, 201, 63, 3000, 5)
	b4x4, err := matrix.NewBCSR[uint32](ragged, matrix.BlockShape{R: 4, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	bcoo, err := matrix.NewBCOO[uint16](ragged, matrix.BlockShape{R: 2, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := gen.GenerateByName("LP", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	lpCSR, err := matrix.NewCSR[uint32](lp)
	if err != nil {
		t.Fatal(err)
	}
	var slabs []kernel.ColPart
	for _, sp := range partition.FixedWidthSpans(lpCSR.C, (lpCSR.C+1)/2) {
		enc := lpCSR.Submatrix(0, lpCSR.R, sp.Lo, sp.Hi)
		slabs = append(slabs, kernel.ColPart{Span: sp, Enc: enc})
	}
	columns, err := kernel.NewParallelColumns(lpCSR.R, lpCSR.C, slabs)
	if err != nil {
		t.Fatal(err)
	}
	segscan, err := kernel.NewSegmentedScan(lpCSR, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		k    kernel.Kernel
	}{
		{"tuned-parallel", pk},
		{"bcsr4x4", compile(t, b4x4)},
		{"bcoo2x4", compile(t, bcoo)},
		{"cacheblocked", compile(t, paddedCacheBlocked(t))},
		{"columns", columns},
		{"segscan", segscan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkConcurrentMulAdd(t, tc.k) })
	}
}

func checkConcurrentMulAdd(t *testing.T, k kernel.Kernel) {
	rows, cols := k.Format().Dims()
	const goroutines, rounds = 6, 40
	rng := rand.New(rand.NewSource(11))
	xs := make([][]float64, goroutines)
	want := make([][]float64, goroutines)
	for g := range xs {
		xs[g] = make([]float64, cols)
		for j := range xs[g] {
			xs[g][j] = rng.NormFloat64()
		}
		want[g] = make([]float64, rows)
		if err := k.MulAdd(want[g], xs[g]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wrong := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := make([]float64, rows)
			for r := 0; r < rounds; r++ {
				clear(y)
				if err := k.MulAdd(y, xs[g]); err != nil {
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
			t.Errorf("goroutine %d: %d of %d concurrent results differ from the single-goroutine ones", g, n, rounds)
		}
	}
}

func compile(t *testing.T, fm matrix.Format) kernel.Kernel {
	t.Helper()
	k, err := kernel.Compile(fm)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// randomCSR draws nnz entries (duplicates summed) of a rows×cols matrix.
func randomCSR(t *testing.T, rows, cols, nnz int, seed int64) *matrix.CSR32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO(rows, cols)
	for n := 0; n < nnz; n++ {
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

// paddedCacheBlocked is a 101×151 matrix in a 2×2 grid of cache blocks,
// BCSR and BCOO tiles, whose last block (51×76 in 4×4 BCOO tiles) pads
// both vectors past the matrix edge.
func paddedCacheBlocked(t *testing.T) *matrix.CacheBlocked {
	t.Helper()
	csr := randomCSR(t, 101, 151, 2500, 9)
	var blocks []matrix.CacheBlock
	for i, rb := range [][2]int{{0, 50}, {50, 101}} {
		for j, cb := range [][2]int{{0, 75}, {75, 151}} {
			sub := csr.Submatrix(rb[0], rb[1], cb[0], cb[1])
			var enc matrix.Format
			var err error
			if (i+j)%2 == 0 {
				enc, err = matrix.NewBCOO[uint16](sub, matrix.BlockShape{R: 4, C: 4})
			} else {
				enc, err = matrix.NewBCSR[uint16](sub, matrix.BlockShape{R: 2, C: 4})
			}
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, matrix.CacheBlock{
				RowOff: rb[0], ColOff: cb[0],
				Rows: rb[1] - rb[0], Cols: cb[1] - cb[0],
				Enc: enc,
			})
		}
	}
	cb := matrix.NewCacheBlocked(101, 151, blocks)
	if err := cb.Validate(); err != nil {
		t.Fatal(err)
	}
	return cb
}
