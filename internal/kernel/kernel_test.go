package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// fillRandom adds n random entries at distinct positions.
func fillRandom(m *matrix.COO, rng *rand.Rand, n int) *matrix.COO {
	type pos struct{ r, c int32 }
	seen := make(map[pos]bool, n)
	for len(m.Val) < n {
		r := int32(rng.Intn(m.R))
		c := int32(rng.Intn(m.C))
		if seen[pos{r, c}] {
			continue
		}
		seen[pos{r, c}] = true
		m.RowIdx = append(m.RowIdx, r)
		m.ColIdx = append(m.ColIdx, c)
		m.Val = append(m.Val, rng.NormFloat64())
	}
	return m
}

// reference computes y += A x with the COO loop.
func reference(m *matrix.COO, y, x []float64) {
	for k := range m.Val {
		y[m.RowIdx[k]] += m.Val[k] * x[m.ColIdx[k]]
	}
}

// maxAbsDiff returns the max elementwise |a-b|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// checkKernel runs k against the reference on random vectors.
func checkKernel(t *testing.T, k Kernel, m *matrix.COO, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	x := make([]float64, m.C)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.R)
	got := make([]float64, m.R)
	for i := range want {
		v := rng.NormFloat64()
		want[i], got[i] = v, v
	}
	reference(m, want, x)
	if err := k.MulAdd(got, x); err != nil {
		t.Fatalf("%s: %v", k.Name(), err)
	}
	if d := maxAbsDiff(got, want); d > tol {
		t.Errorf("%s: max abs diff %g > %g", k.Name(), d, tol)
	}
}

// testMatrices yields a diverse set of structures: random, dense, banded,
// empty-row-heavy, single row/col, and empty.
func testMatrices(t *testing.T) map[string]*matrix.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	ms := map[string]*matrix.COO{}

	ms["random37x53"] = fillRandom(matrix.NewCOO(37, 53), rng, 400)
	ms["random128x128"] = fillRandom(matrix.NewCOO(128, 128), rng, 2000)

	dense := matrix.NewCOO(24, 24)
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			_ = dense.Append(i, j, rng.NormFloat64())
		}
	}
	ms["dense24"] = dense

	band := matrix.NewCOO(200, 200)
	for i := 0; i < 200; i++ {
		for d := -2; d <= 2; d++ {
			if j := i + d; j >= 0 && j < 200 {
				_ = band.Append(i, j, rng.NormFloat64())
			}
		}
	}
	ms["band200"] = band

	sparseRows := matrix.NewCOO(100, 100)
	for i := 0; i < 100; i += 7 { // most rows empty
		_ = sparseRows.Append(i, (i*13)%100, rng.NormFloat64())
	}
	ms["emptyrows"] = sparseRows

	ms["singlerow"] = fillRandom(matrix.NewCOO(1, 64), rng, 20)
	ms["singlecol"] = fillRandom(matrix.NewCOO(64, 1), rng, 20)
	ms["empty"] = matrix.NewCOO(10, 10)
	ms["tall3x1"] = fillRandom(matrix.NewCOO(3, 1), rng, 1)
	return ms
}

func TestCSRVariantsMatchReference(t *testing.T) {
	for name, m := range testMatrices(t) {
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []Variant{Naive, SingleLoop, Branchless} {
			k, err := CompileCSR(csr, v)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			t.Run(name+"/"+v.String(), func(t *testing.T) {
				checkKernel(t, k, m, 1e-12)
			})
		}
		// CSR16 where it fits.
		if m.C <= 65536 {
			csr16, err := matrix.NewCSR[uint16](m)
			if err != nil {
				t.Fatal(err)
			}
			k, err := CompileCSR(csr16, SingleLoop)
			if err != nil {
				t.Fatal(err)
			}
			checkKernel(t, k, m, 1e-12)
		}
	}
}

func TestBCSRKernelsMatchReferenceAllShapes(t *testing.T) {
	for name, m := range testMatrices(t) {
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range matrix.BlockShapes {
			b, err := matrix.NewBCSR[uint32](csr, shape)
			if err != nil {
				t.Fatalf("%s %v: %v", name, shape, err)
			}
			k, err := Compile(b)
			if err != nil {
				t.Fatalf("%s %v: %v", name, shape, err)
			}
			t.Run(name+"/"+shape.String(), func(t *testing.T) {
				checkKernel(t, k, m, 1e-12)
			})
		}
	}
}

// TestBCOOKernelsMatchReferenceAllShapes holds every BCOO shape, at both
// index widths, to the reference within rounding, and its one loop nest to
// itself bitwise: lane v of the width-k sweep, k = 1..8, is the width-1
// body's answer for vector v.
func TestBCOOKernelsMatchReferenceAllShapes(t *testing.T) {
	for name, m := range testMatrices(t) {
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range matrix.BlockShapes {
			b32, err := matrix.NewBCOO[uint32](csr, shape)
			if err != nil {
				t.Fatalf("%s %v: %v", name, shape, err)
			}
			b16, err := matrix.NewBCOO[uint16](csr, shape)
			if err != nil {
				t.Fatalf("%s %v: %v", name, shape, err)
			}
			t.Run(name+"/bcoo"+shape.String(), func(t *testing.T) {
				for _, b := range []matrix.Format{b32, b16} {
					k, err := Compile(b)
					if err != nil {
						t.Fatal(err)
					}
					checkKernel(t, k, m, 1e-12)
					checkLanesAreWidth1(t, k, b)
				}
			})
		}
	}
}

// checkLanesAreWidth1 asserts that lane v of fm's width-k sweep, for
// k = 1..8, is bitwise the scalar kernel's answer for vector v.
func checkLanesAreWidth1(t *testing.T, k Kernel, fm matrix.Format) {
	t.Helper()
	rows, cols := fm.Dims()
	rng := rand.New(rand.NewSource(5))
	xs := make([][]float64, 8)
	want := make([][]float64, 8)
	for v := range xs {
		xs[v] = make([]float64, cols)
		for j := range xs[v] {
			xs[v][j] = rng.NormFloat64()
		}
		want[v] = make([]float64, rows)
		if err := k.MulAdd(want[v], xs[v]); err != nil {
			t.Fatal(err)
		}
	}
	for width := 1; width <= 8; width++ {
		w, err := NewWide(fm, width)
		if err != nil {
			t.Fatal(err)
		}
		x, err := Interleave(xs[:width])
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, rows*width)
		if err := w.MulAddBlock(y, x); err != nil {
			t.Fatal(err)
		}
		for i, got := range y {
			if r, v := i/width, i%width; math.Float64bits(got) != math.Float64bits(want[v][r]) {
				t.Fatalf("%s: lane %d row %d: %v, width-1 body %v", w.Name(), v, r, got, want[v][r])
			}
		}
	}
}

func TestBCSR16KernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := fillRandom(matrix.NewCOO(60, 60), rng, 500)
	csr, _ := matrix.NewCSR[uint32](m)
	for _, shape := range matrix.BlockShapes {
		b, err := matrix.NewBCSR[uint16](csr, shape)
		if err != nil {
			t.Fatal(err)
		}
		k, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		checkKernel(t, k, m, 1e-12)
		bc, err := matrix.NewBCOO[uint16](csr, shape)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := Compile(bc)
		if err != nil {
			t.Fatal(err)
		}
		checkKernel(t, k2, m, 1e-12)
	}
}

func TestCacheBlockedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := fillRandom(matrix.NewCOO(100, 150), rng, 1500)
	csr, _ := matrix.NewCSR[uint32](m)
	// 2x3 grid of cache blocks with mixed encodings.
	var blocks []matrix.CacheBlock
	shapes := []matrix.BlockShape{
		{R: 2, C: 2}, {R: 1, C: 4}, {R: 4, C: 1},
		{R: 1, C: 1}, {R: 2, C: 4}, {R: 4, C: 4},
	}
	idx := 0
	for _, rb := range [][2]int{{0, 50}, {50, 100}} {
		for _, cb := range [][2]int{{0, 50}, {50, 100}, {100, 150}} {
			sub := csr.SubmatrixCOO(rb[0], rb[1], cb[0], cb[1])
			subCSR, err := matrix.NewCSR[uint32](sub)
			if err != nil {
				t.Fatal(err)
			}
			var enc matrix.Format
			if idx%2 == 0 {
				b, err := matrix.NewBCSR[uint16](subCSR, shapes[idx])
				if err != nil {
					t.Fatal(err)
				}
				enc = b
			} else {
				b, err := matrix.NewBCOO[uint16](subCSR, shapes[idx])
				if err != nil {
					t.Fatal(err)
				}
				enc = b
			}
			blocks = append(blocks, matrix.CacheBlock{
				RowOff: rb[0], ColOff: cb[0],
				Rows: rb[1] - rb[0], Cols: cb[1] - cb[0],
				Enc: enc,
			})
			idx++
		}
	}
	cb := matrix.NewCacheBlocked(100, 150, blocks)
	if err := cb.Validate(); err != nil {
		t.Fatal(err)
	}
	k, err := Compile(cb)
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, k, m, 1e-12)
}

func TestParallelKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := fillRandom(matrix.NewCOO(211, 173), rng, 3000)
	csr, _ := matrix.NewCSR[uint32](m)
	for _, threads := range []int{1, 2, 3, 4, 8} {
		p, err := partition.ByNNZ(csr.RowPtr, threads)
		if err != nil {
			t.Fatal(err)
		}
		var parts []Part
		for i, r := range p.Ranges {
			sub := csr.SubmatrixCOO(r.Lo, r.Hi, 0, 173)
			subCSR, err := matrix.NewCSR[uint32](sub)
			if err != nil {
				t.Fatal(err)
			}
			// Alternate encodings across parts to exercise mixing.
			var enc matrix.Format = subCSR
			if i%2 == 1 {
				b, err := matrix.NewBCSR[uint32](subCSR, matrix.BlockShape{R: 2, C: 2})
				if err != nil {
					t.Fatal(err)
				}
				enc = b
			}
			parts = append(parts, Part{Range: r, Enc: enc})
		}
		pk, err := NewParallel(211, 173, parts)
		if err != nil {
			t.Fatal(err)
		}
		if pk.Threads() != threads {
			t.Errorf("threads=%d: got %d", threads, pk.Threads())
		}
		checkKernel(t, pk, m, 1e-12)
		// Parts run one after another must agree exactly with parts run
		// on their own goroutines.
		x := make([]float64, 173)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, 211)
		y2 := make([]float64, 211)
		if err := pk.MulAdd(y1, x); err != nil {
			t.Fatal(err)
		}
		if err := pk.MulAddBlockExec(y2, x, serialExec); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(y1, y2); d != 0 {
			t.Errorf("threads=%d: parallel vs sequential diff %g", threads, d)
		}
	}
}

// serialExec runs tasks one after another on the calling goroutine.
func serialExec(tasks []func()) {
	for _, task := range tasks {
		task()
	}
}

func TestParallelRejectsBadParts(t *testing.T) {
	m := matrix.NewCOO(10, 10)
	csr, _ := matrix.NewCSR[uint32](m)
	sub := csr.SubmatrixCOO(0, 5, 0, 10)
	subCSR, _ := matrix.NewCSR[uint32](sub)
	// Gap: part covers rows [0,5) only.
	if _, err := NewParallel(10, 10, []Part{
		{Range: partition.Range{Lo: 0, Hi: 5}, Enc: subCSR},
	}); err == nil {
		t.Error("gap in row coverage accepted")
	}
	// Wrong encoding dims.
	if _, err := NewParallel(10, 10, []Part{
		{Range: partition.Range{Lo: 0, Hi: 10}, Enc: subCSR},
	}); err == nil {
		t.Error("wrong encoding dims accepted")
	}
}

func TestMulAddShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := fillRandom(matrix.NewCOO(8, 9), rng, 20)
	csr, _ := matrix.NewCSR[uint32](m)
	k, _ := Compile(csr)
	if err := k.MulAdd(make([]float64, 7), make([]float64, 9)); err == nil {
		t.Error("short y accepted")
	}
	if err := k.MulAdd(make([]float64, 8), make([]float64, 10)); err == nil {
		t.Error("long x accepted")
	}
}

func TestCompileUnknownFormat(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Error("nil format accepted")
	}
}

func TestKernelNames(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := fillRandom(matrix.NewCOO(16, 16), rng, 40)
	csr, _ := matrix.NewCSR[uint32](m)
	b, _ := matrix.NewBCSR[uint32](csr, matrix.BlockShape{R: 2, C: 4})
	k, _ := Compile(b)
	if k.Name() != "bcsr2x4/32" {
		t.Errorf("name %q", k.Name())
	}
	kn, _ := CompileCSR(csr, Naive)
	if kn.Name() != "csr32/naive" {
		t.Errorf("name %q", kn.Name())
	}
}

// Property: every kernel agrees with the reference on arbitrary matrices.
func TestQuickAllKernelsAgree(t *testing.T) {
	f := func(seed int64, shapeIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		reference(m, want, x)

		kernels := []Kernel{}
		for _, v := range []Variant{Naive, SingleLoop, Branchless} {
			k, err := CompileCSR(csr, v)
			if err != nil {
				return false
			}
			kernels = append(kernels, k)
		}
		shape := matrix.BlockShapes[int(shapeIdx)%len(matrix.BlockShapes)]
		b, err := matrix.NewBCSR[uint32](csr, shape)
		if err != nil {
			return false
		}
		kb, err := Compile(b)
		if err != nil {
			return false
		}
		kernels = append(kernels, kb)
		bc, err := matrix.NewBCOO[uint32](csr, shape)
		if err != nil {
			return false
		}
		kc, err := Compile(bc)
		if err != nil {
			return false
		}
		kernels = append(kernels, kc)

		for _, k := range kernels {
			got := make([]float64, rows)
			if err := k.MulAdd(got, x); err != nil {
				return false
			}
			if maxAbsDiff(got, want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: repeated MulAdd accumulates exactly k times the single product.
func TestQuickAccumulation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			return false
		}
		k, err := Compile(csr)
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = float64(rng.Intn(7)) // small integers: exact accumulation
		}
		// Make values integral too so 3*(Ax) is exact.
		for i := range m.Val {
			m.Val[i] = float64(rng.Intn(5))
		}
		csr2, _ := matrix.NewCSR[uint32](m)
		k, _ = Compile(csr2)
		once := make([]float64, rows)
		reference(m, once, x)
		got := make([]float64, rows)
		for rep := 0; rep < 3; rep++ {
			if err := k.MulAdd(got, x); err != nil {
				return false
			}
		}
		for i := range got {
			if got[i] != 3*once[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
