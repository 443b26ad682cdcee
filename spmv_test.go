package spmv_test

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	spmv "repro"
)

// buildRandom fills an n×m matrix with k random entries.
func buildRandom(t testing.TB, rng *rand.Rand, rows, cols, k int) *spmv.Matrix {
	t.Helper()
	m := spmv.NewMatrix(rows, cols)
	for i := 0; i < k; i++ {
		if err := m.Set(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// naiveMul computes y = A x via the Entries iterator.
func naiveMul(m *spmv.Matrix, x []float64) []float64 {
	rows, _ := m.Dims()
	y := make([]float64, rows)
	m.Entries(func(i, j int, v float64) { y[i] += v * x[j] })
	return y
}

func TestCompileAndMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := buildRandom(t, rng, 200, 300, 2500)
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := naiveMul(m, x)

	for _, opts := range []spmv.TuneOptions{
		spmv.NaiveOptions(),
		spmv.DefaultTuneOptions(),
		{RegisterBlock: true, ReduceIndices: true},
	} {
		op, err := spmv.Compile(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := op.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: row %d: %g vs %g", op.KernelName(), i, got[i], want[i])
			}
		}
	}
}

func TestCompileParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := buildRandom(t, rng, 500, 500, 8000)
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	serial, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	ys, err := serial.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 3, 8} {
		par, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), threads, 2)
		if err != nil {
			t.Fatal(err)
		}
		if par.Threads() != threads {
			t.Errorf("threads %d, want %d", par.Threads(), threads)
		}
		yp, err := par.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range yp {
			if math.Abs(yp[i]-ys[i]) > 1e-9 {
				t.Fatalf("threads=%d row %d: %g vs %g", threads, i, yp[i], ys[i])
			}
		}
	}
	if _, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), 0, 1); err == nil {
		t.Error("0 threads accepted")
	}
}

func TestMulAddAccumulates(t *testing.T) {
	m := spmv.NewMatrix(2, 2)
	if err := m.Set(0, 0, 3); err != nil {
		t.Fatal(err)
	}
	op, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{10, 20}
	if err := op.MulAdd(y, []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	if y[0] != 16 || y[1] != 20 {
		t.Errorf("y = %v, want [16 20]", y)
	}
}

func TestSetBounds(t *testing.T) {
	m := spmv.NewMatrix(2, 2)
	if err := m.Set(2, 0, 1); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := m.Set(0, -1, 1); err == nil {
		t.Error("negative col accepted")
	}
}

func TestDuplicatesSummedAtCompile(t *testing.T) {
	m := spmv.NewMatrix(1, 1)
	_ = m.Set(0, 0, 2)
	_ = m.Set(0, 0, 3)
	op, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	y, err := op.Mul([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 5 {
		t.Errorf("duplicate sum: %g, want 5", y[0])
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := buildRandom(t, rng, 30, 40, 200)
	var buf bytes.Buffer
	if err := m.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := spmv.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, c1 := m.Dims()
	r2, c2 := got.Dims()
	if r1 != r2 || c1 != c2 || m.NNZ() != got.NNZ() {
		t.Fatalf("round trip changed shape: %dx%d/%d vs %dx%d/%d",
			r1, c1, m.NNZ(), r2, c2, got.NNZ())
	}
	if _, err := spmv.ReadMatrixMarket(strings.NewReader("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestGenerateSuiteNames(t *testing.T) {
	names := spmv.SuiteNames()
	if len(names) != 14 {
		t.Fatalf("%d suite names", len(names))
	}
	m, err := spmv.GenerateSuite("QCD", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() == 0 {
		t.Error("empty QCD twin")
	}
	if _, err := spmv.GenerateSuite("Bogus", 0.01, 5); err == nil {
		t.Error("unknown suite name accepted")
	}
	st := m.Stats()
	if st.Rows == 0 || st.NNZPerRow <= 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestSavingsAndFootprint(t *testing.T) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	if naive.Savings() != 0 {
		t.Errorf("naive savings %.2f, want 0", naive.Savings())
	}
	if tuned.Savings() <= 0.1 {
		t.Errorf("tuned savings %.2f, want > 0.1 on a FEM matrix", tuned.Savings())
	}
	if tuned.FootprintBytes() >= naive.FootprintBytes() {
		t.Error("tuning did not shrink the footprint")
	}
	if len(tuned.Decisions()) == 0 {
		t.Error("no decisions recorded")
	}
	if tuned.NNZ() != naive.NNZ() {
		t.Error("nnz changed under tuning")
	}
}

func TestEntriesIteration(t *testing.T) {
	m := spmv.NewMatrix(3, 3)
	_ = m.Set(0, 1, 2)
	_ = m.Set(2, 2, 4)
	var count int
	var sum float64
	m.Entries(func(i, j int, v float64) {
		count++
		sum += v
	})
	if count != 2 || sum != 6 {
		t.Errorf("count %d sum %g", count, sum)
	}
}

// Property: the public API computes the same product as the naive triple
// loop for arbitrary matrices and tuning options.
func TestQuickPublicAPICorrectness(t *testing.T) {
	f := func(seed int64, flags uint8, threads8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		m := spmv.NewMatrix(rows, cols)
		k := rng.Intn(rows * cols)
		for i := 0; i < k; i++ {
			if m.Set(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()) != nil {
				return false
			}
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := naiveMul(m, x)

		opt := spmv.TuneOptions{
			RegisterBlock: flags&1 != 0,
			ReduceIndices: flags&2 != 0,
			AllowBCOO:     flags&4 != 0,
		}
		threads := int(threads8%4) + 1
		op, err := spmv.CompileParallel(m, opt, threads, 1)
		if err != nil {
			return false
		}
		got, err := op.Mul(x)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompileSymmetric(t *testing.T) {
	// Symmetric 2D Laplacian.
	const side = 20
	n := side * side
	m := spmv.NewMatrix(n, n)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := at(r, c)
			_ = m.Set(i, i, 4)
			for _, d := range [2][2]int{{1, 0}, {0, 1}} {
				rr, cc := r+d[0], c+d[1]
				if rr < side && cc < side {
					_ = m.Set(i, at(rr, cc), -1)
					_ = m.Set(at(rr, cc), i, -1)
				}
			}
		}
	}
	sym, err := spmv.CompileSymmetric(m)
	if err != nil {
		t.Fatal(err)
	}
	full, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sym.FootprintBytes() >= full.FootprintBytes() {
		t.Errorf("symmetric footprint %d not below full %d",
			sym.FootprintBytes(), full.FootprintBytes())
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	ys, err := sym.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	yf, err := full.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ys {
		if math.Abs(ys[i]-yf[i]) > 1e-9 {
			t.Fatalf("row %d: %g vs %g", i, ys[i], yf[i])
		}
	}
	// Asymmetric input must be rejected.
	bad := spmv.NewMatrix(2, 2)
	_ = bad.Set(0, 1, 1)
	if _, err := spmv.CompileSymmetric(bad); err == nil {
		t.Error("asymmetric matrix accepted")
	}
}

func TestCompileMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := buildRandom(t, rng, 60, 80, 900)
	op, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	const nv = 3
	multi, err := spmv.CompileMulti(m, nv)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Vectors() != nv {
		t.Errorf("vectors %d", multi.Vectors())
	}
	xs := make([][]float64, nv)
	for v := range xs {
		xs[v] = make([]float64, 80)
		for i := range xs[v] {
			xs[v][i] = rng.NormFloat64()
		}
	}
	got, err := multi.MulAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	for v := range xs {
		want, err := op.Mul(xs[v])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[v][i]-want[i]) > 1e-9 {
				t.Fatalf("vector %d row %d: %g vs %g", v, i, got[v][i], want[i])
			}
		}
	}
	// Wrong vector count rejected.
	if _, err := multi.MulAll(xs[:2]); err == nil {
		t.Error("wrong vector count accepted")
	}
	if _, err := multi.MulAll([][]float64{xs[0], xs[1], xs[2][:79]}); err == nil {
		t.Error("ragged vectors accepted")
	}
	if _, err := spmv.Interleave(nil); err == nil {
		t.Error("empty interleave accepted")
	}
	if _, err := spmv.Deinterleave([]float64{1, 2, 3}, 2); err == nil {
		t.Error("indivisible deinterleave accepted")
	}
	if _, err := spmv.Deinterleave([]float64{1, 2}, 0); err == nil {
		t.Error("zero-width deinterleave accepted")
	}
	if _, err := spmv.CompileMulti(m, 0); err == nil {
		t.Error("0 vectors accepted")
	}
}

func TestReorderRCM(t *testing.T) {
	// Shuffled banded matrix: RCM must narrow it and preserve products.
	const n = 150
	rng := rand.New(rand.NewSource(15))
	shuffle := rng.Perm(n)
	m := spmv.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		_ = m.Set(shuffle[i], shuffle[i], 2)
		if i+1 < n {
			_ = m.Set(shuffle[i], shuffle[i+1], -1)
			_ = m.Set(shuffle[i+1], shuffle[i], -1)
		}
	}
	rm, ro, err := spmv.ReorderRCM(m)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Stats().Bandwidth >= m.Stats().Bandwidth/4 {
		t.Errorf("RCM bandwidth %d not far below original %d",
			rm.Stats().Bandwidth, m.Stats().Bandwidth)
	}
	op, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	rop, err := spmv.Compile(rm, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := op.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	py, err := rop.Mul(ro.Permute(x))
	if err != nil {
		t.Fatal(err)
	}
	got := ro.Unpermute(py)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("row %d: %g vs %g", i, got[i], want[i])
		}
	}
	// Rectangular matrices are rejected.
	rect := spmv.NewMatrix(2, 3)
	if _, _, err := spmv.ReorderRCM(rect); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

// TestCompiledOperatorIgnoresLaterSet: an Operator is the matrix as
// compiled. A Set after Compile reaches none of what the operator builds
// from its source entries afterwards — Multi's CSR, RowPartition's counts,
// a parallel operator's source-gather Traffic — at either thread count,
// naive or tuned, even while a later compile's canonical CSR of the grown
// matrix is cached. That later compile sees the new entry.
func TestCompiledOperatorIgnoresLaterSet(t *testing.T) {
	for _, threads := range []int{1, 2} {
		for _, opt := range []spmv.TuneOptions{spmv.NaiveOptions(), spmv.DefaultTuneOptions()} {
			m := spmv.NewMatrix(3, 24) // diag(1, 2, 3) in the first three columns
			for i := 0; i < 3; i++ {
				if err := m.Set(i, i, float64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
			op, err := spmv.CompileParallel(m, opt, threads, 1)
			if err != nil {
				t.Fatal(err)
			}
			before, err := op.Traffic(spmv.TrafficOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Column 20 is on a cache line of x no compiled entry touches.
			if err := m.Set(0, 20, 100); err != nil {
				t.Fatal(err)
			}
			x := make([]float64, 24)
			for i := range x {
				x[i] = 1
			}
			later, err := spmv.CompileParallel(m, opt, threads, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				op *spmv.Operator
				y0 float64 // row 0 of A·1
			}{{op, 1}, {later, 101}} {
				lmo, err := c.op.Multi(1)
				if err != nil {
					t.Fatal(err)
				}
				y, err := c.op.Mul(x)
				if err != nil {
					t.Fatal(err)
				}
				yb := make([]float64, 3)
				if err := lmo.MulAddBlock(yb, x); err != nil {
					t.Fatal(err)
				}
				if y[0] != c.y0 || yb[0] != c.y0 {
					t.Errorf("%s: row 0 is %v (Mul), %v (Multi); want %v", c.op.KernelName(), y[0], yb[0], c.y0)
				}
			}
			want := make([]float64, 3)
			if err := op.MulAdd(want, x); err != nil {
				t.Fatal(err)
			}
			mo, err := op.Multi(1)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, 3)
			if err := mo.MulAddBlock(got, x); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s: Multi(1) = %v, MulAdd = %v", op.KernelName(), got, want)
					break
				}
			}
			parts, err := op.RowPartition(2)
			if err != nil {
				t.Fatal(err)
			}
			var nnz int64
			for _, p := range parts {
				nnz += p.NNZ
			}
			if nnz != op.NNZ() {
				t.Errorf("%s: RowPartition counts %d nonzeros, NNZ() = %d", op.KernelName(), nnz, op.NNZ())
			}
			if after, err := op.Traffic(spmv.TrafficOptions{}); err != nil || after != before {
				t.Errorf("%s: Traffic %+v after Set, %+v before (%v)", op.KernelName(), after, before, err)
			}
		}
	}
}

// copyMatrix rebuilds m entry by entry: the same entries in the same
// order, in a Matrix that shares no cache with m.
func copyMatrix(t testing.TB, m *spmv.Matrix) *spmv.Matrix {
	t.Helper()
	rows, cols := m.Dims()
	c := spmv.NewMatrix(rows, cols)
	m.Entries(func(i, j int, v float64) {
		if err := c.Set(i, j, v); err != nil {
			t.Fatal(err)
		}
	})
	return c
}

// sweepBits returns the bits of A·x and of A·[x, 2x] through Multi(2),
// the multi-RHS door that streams the canonical CSR.
func sweepBits(op *spmv.Operator, x []float64) ([]uint64, error) {
	y, err := op.Mul(x)
	if err != nil {
		return nil, err
	}
	mo, err := op.Multi(2)
	if err != nil {
		return nil, err
	}
	x2 := make([]float64, len(x))
	for i, v := range x {
		x2[i] = 2 * v
	}
	ys, err := mo.MulAll([][]float64{x, x2})
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, v := range slices.Concat(y, ys[0], ys[1]) {
		out = append(out, math.Float64bits(v))
	}
	return out, nil
}

// TestConcurrentCompilesShareOneCSR: eight goroutines compile one Matrix
// at once, with mixed options and thread counts, and take its Multi view.
// Each result matches, bit for bit, a compile of a fresh copy of the
// matrix, which shares no canonical CSR with anything.
func TestConcurrentCompilesShareOneCSR(t *testing.T) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	sym := spmv.DefaultTuneOptions()
	sym.TrySymmetric = true
	opts := []spmv.TuneOptions{spmv.NaiveOptions(), spmv.DefaultTuneOptions(),
		{RegisterBlock: true, MinBlockRows: 2, ReduceIndices: true}, sym}
	const workers = 8
	want := make([][]uint64, workers)
	for g := range want {
		op, err := spmv.CompileParallel(copyMatrix(t, m), opts[g%len(opts)], 1+g%3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want[g], err = sweepBits(op, x); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, err := spmv.CompileParallel(m, opts[g%len(opts)], 1+g%3, 1)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := sweepBits(op, x)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got, want[g]) {
				t.Errorf("worker %d (%s, %d threads): bits differ from a fresh copy's compile",
					g, op.KernelName(), op.Threads())
			}
		}()
	}
	wg.Wait()
}

// TestCanonicalCSRHeldWeakly: the compiles and CSR hooks of one matrix
// state share one canonical CSR, and nothing keeps it but an operator that
// uses it. While a naive operator is alive, a tuned operator's Multi view
// streams that operator's very encoding, as the library benchmark's
// set-up order has it (naive, tuned, parallel, then Multi(4)). Once the
// holders are gone and a collection has run, the cache holds nothing,
// even while a tuned operator — which keeps no CSR — is alive.
func TestCanonicalCSRHeldWeakly(t *testing.T) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	tuned := func() *spmv.Operator {
		t.Helper()
		op, err := spmv.Compile(m, spmv.DefaultTuneOptions())
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	func() {
		naive, err := spmv.Compile(m, spmv.NaiveOptions())
		if err != nil {
			t.Fatal(err)
		}
		enc := spmv.EncodingCSR(naive)
		if enc == nil || spmv.CachedCSR(m) != enc {
			t.Fatalf("naive encoding %p, cached CSR %p: want one CSR", enc, spmv.CachedCSR(m))
		}
		op := tuned()
		if _, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), 2, 1); err != nil {
			t.Fatal(err)
		}
		runtime.GC() // the naive operator alone keeps the CSR alive
		mo, err := op.Multi(4)
		if err != nil {
			t.Fatal(err)
		}
		if spmv.ViewCSR(mo) != enc {
			t.Errorf("tuned Multi(4) streams %p, want the naive encoding %p", spmv.ViewCSR(mo), enc)
		}
		if m.IsSymmetric() || spmv.CachedCSR(m) != enc {
			t.Error("IsSymmetric did not check the cached CSR")
		}
		runtime.KeepAlive(naive)
	}()
	runtime.GC()
	if spmv.CachedCSR(m) != nil {
		t.Error("the cache keeps the canonical CSR alive after its holders are gone")
	}
	op := tuned()
	runtime.GC()
	if spmv.CachedCSR(m) != nil {
		t.Errorf("a %s operator keeps the canonical CSR alive", op.KernelName())
	}
	runtime.KeepAlive(op)
}

// TestOperatorMultiRHSHooks covers the serving-layer hooks: one view cache
// for Multi and WideMulti, nonzero-balanced RowPartition, sharded
// MulAddRows, and Traffic.
func TestOperatorMultiRHSHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := buildRandom(t, rng, 120, 90, 1000)
	op, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Multi views are cached per width.
	mo4a, err := op.Multi(4)
	if err != nil {
		t.Fatal(err)
	}
	mo4b, err := op.Multi(4)
	if err != nil {
		t.Fatal(err)
	}
	if mo4a != mo4b {
		t.Error("Multi(4) not cached")
	}
	if mo2, err := op.Multi(2); err != nil || mo2 == mo4a {
		t.Errorf("Multi(2) = %v, %v", mo2, err)
	}
	if r, c := mo4a.Dims(); r != 120 || c != 90 {
		t.Errorf("multi dims %dx%d", r, c)
	}
	// The tuned encoding is not the canonical CSR32: WideMulti is its own
	// view and, parallelizing internally, refuses external row shards.
	wmo, err := op.WideMulti(4)
	if err != nil {
		t.Fatal(err)
	}
	if wmo == mo4a || strings.HasPrefix(op.KernelName(), "csr32") {
		t.Errorf("kernel %s: WideMulti(4) shares Multi(4)'s view", op.KernelName())
	}
	if err := wmo.MulAddRows(make([]float64, 480), make([]float64, 360), 0, 1); err == nil {
		t.Error("MulAddRows on a tuned-encoding view accepted")
	}

	// A naive operator's encoding is the canonical CSR32: Multi and
	// WideMulti are one view, and neither it nor RowPartition builds a
	// CSR copy.
	nop, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	nmo, err := nop.Multi(4)
	if err != nil {
		t.Fatal(err)
	}
	if nwmo, err := nop.WideMulti(4); err != nil || nwmo != nmo {
		t.Errorf("naive WideMulti(4) = %p, %v; want Multi(4)'s view %p", nwmo, err, nmo)
	}
	if _, err := nop.RowPartition(4); err != nil {
		t.Fatal(err)
	}
	if spmv.KeepsCSRCopy(nop) {
		t.Error("Multi or RowPartition built a CSR copy of a CSR32-encoded operator")
	}

	// RowPartition tiles the rows and balances nonzeros.
	parts, err := op.RowPartition(4)
	if err != nil {
		t.Fatal(err)
	}
	at, total := 0, int64(0)
	for _, p := range parts {
		if p.Lo != at {
			t.Fatalf("partition gap at row %d: %+v", at, parts)
		}
		at = p.Hi
		total += p.NNZ
	}
	if at != 120 || total != op.NNZ() {
		t.Errorf("partition covers %d rows / %d nnz, want 120 / %d", at, total, op.NNZ())
	}

	// A sweep sharded by the partition matches per-vector reference Muls.
	xs := make([][]float64, 4)
	for v := range xs {
		xs[v] = make([]float64, 90)
		for i := range xs[v] {
			xs[v][i] = rng.NormFloat64()
		}
	}
	xBlock, err := spmv.Interleave(xs)
	if err != nil {
		t.Fatal(err)
	}
	yBlock := make([]float64, 120*4)
	for _, p := range parts {
		if err := mo4a.MulAddRows(yBlock, xBlock, p.Lo, p.Hi); err != nil {
			t.Fatal(err)
		}
	}
	ys, err := spmv.Deinterleave(yBlock, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range ys {
		want := naiveMul(m, xs[v])
		for i := range want {
			if math.Abs(ys[v][i]-want[i]) > 1e-9 {
				t.Fatalf("vector %d row %d: %g vs %g", v, i, ys[v][i], want[i])
			}
		}
	}

	// Traffic models the sweep and scales under MultiRHS.
	tr, err := op.Traffic(spmv.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MatrixBytes <= 0 || tr.Flops != 2*op.NNZ() {
		t.Errorf("traffic %+v", tr)
	}
	fused := tr.MultiRHS(4)
	if fused.MatrixBytes != tr.MatrixBytes || fused.Flops != 4*tr.Flops || fused.SourceBytes != 4*tr.SourceBytes {
		t.Errorf("MultiRHS scaling wrong: %+v vs %+v", fused, tr)
	}

	// Symmetric operators route Multi through the symmetric sweep; only
	// external row sharding (RowPartition / MulAddRows) is refused, since
	// the symmetric scatter escapes any row range.
	sym := spmv.NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		if err := sym.Set(i, i, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sop, err := spmv.CompileSymmetric(sym)
	if err != nil {
		t.Fatal(err)
	}
	smo, err := sop.Multi(2)
	if err != nil {
		t.Fatal(err)
	}
	if swmo, err := sop.WideMulti(2); err != nil || swmo != smo {
		t.Errorf("symmetric WideMulti(2) = %p, %v; want Multi(2)'s view %p", swmo, err, smo)
	}
	sys, err := smo.MulAll([][]float64{{1, 1, 1}, {2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sys[0][0] != 1 || sys[0][1] != 2 || sys[0][2] != 3 || sys[1][2] != 6 {
		t.Errorf("symmetric MulAll = %v", sys)
	}
	if err := smo.MulAddRows(make([]float64, 6), make([]float64, 6), 0, 2); err == nil {
		t.Error("MulAddRows on symmetric view accepted")
	}
	if _, err := sop.RowPartition(2); err == nil {
		t.Error("RowPartition on symmetric operator accepted")
	}
}

// TestSymmetrizeAndCompileSymmetricParallel covers the public symmetric
// pipeline: Symmetrize makes any square matrix exactly symmetric, the
// parallel operator matches the serial one bit for bit at every thread
// count, and its multi-RHS views reproduce the single-vector bits per
// lane while keeping the halved matrix stream.
func TestSymmetrizeAndCompileSymmetricParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := buildRandom(t, rng, 400, 400, 5000)
	if _, err := spmv.CompileSymmetric(m); err == nil {
		t.Fatal("random matrix unexpectedly symmetric")
	}
	sym, err := spmv.Symmetrize(m)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := spmv.CompileSymmetric(sym)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Symmetric() || serial.KernelName() != "symcsr" {
		t.Errorf("serial operator: symmetric=%v kernel=%q", serial.Symmetric(), serial.KernelName())
	}
	if serial.FootprintBytes() >= serial.BaselineBytes() {
		t.Errorf("symmetric footprint %d not below CSR32 baseline %d",
			serial.FootprintBytes(), serial.BaselineBytes())
	}
	d := serial.Decisions()
	if len(d) != 1 || d[0].Format != "SymCSR" {
		t.Errorf("decisions = %+v", d)
	}

	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := serial.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy against the assembled entries.
	ref := naiveMul(sym, x)
	for i := range want {
		if math.Abs(want[i]-ref[i]) > 1e-9 {
			t.Fatalf("row %d: %g vs %g", i, want[i], ref[i])
		}
	}
	// Bit-parity across thread counts.
	for _, threads := range []int{2, 4} {
		par, err := spmv.CompileSymmetricParallel(sym, threads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("threads=%d row %d: %x vs %x", threads, i, got[i], want[i])
			}
		}
		// Multi-RHS lanes reproduce the width-1 bits.
		mo, err := par.Multi(4)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := mo.MulAll([][]float64{x, x, x, x})
		if err != nil {
			t.Fatal(err)
		}
		for v := range ys {
			for i := range ys[v] {
				if ys[v][i] != want[i] {
					t.Fatalf("threads=%d lane %d row %d: %x vs %x", threads, v, i, ys[v][i], want[i])
				}
			}
		}
	}

	if _, err := spmv.CompileSymmetricParallel(sym, 0); err == nil {
		t.Error("threads=0 accepted")
	}
	rect := spmv.NewMatrix(2, 3)
	if _, err := spmv.Symmetrize(rect); err == nil {
		t.Error("rectangular Symmetrize accepted")
	}
}

// TestSymmetricTrafficHalvesMatrixStream checks the traffic model: the
// symmetric operator's modeled matrix stream is roughly half the plain
// CSR32 operator's on the same matrix.
func TestSymmetricTrafficHalvesMatrixStream(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sym, err := spmv.Symmetrize(buildRandom(t, rng, 300, 300, 6000))
	if err != nil {
		t.Fatal(err)
	}
	sop, err := spmv.CompileSymmetricParallel(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	gop, err := spmv.Compile(sym, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sop.Traffic(spmv.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := gop.Traffic(spmv.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MatrixBytes <= 0 || float64(st.MatrixBytes) > 0.62*float64(gt.MatrixBytes) {
		t.Errorf("symmetric matrix stream %d B vs general %d B: not halved", st.MatrixBytes, gt.MatrixBytes)
	}
	if st.Flops != 2*sop.NNZ() {
		t.Errorf("flops %d, want %d", st.Flops, 2*sop.NNZ())
	}
}

// TestTrySymmetricPicksSymCSR: on a numerically symmetric scatter matrix
// (no register-block structure to exploit), upper-triangle storage beats
// the tuned plan, so CompileParallel with TrySymmetric returns the
// symmetric operator at every thread count: one SymCSR decision, a
// smaller footprint than the general plan, and CompileSymmetricParallel's
// bits.
func TestTrySymmetricPicksSymCSR(t *testing.T) {
	m, err := spmv.Symmetrize(buildRandom(t, rand.New(rand.NewSource(7)), 600, 600, 4000))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 600)
	for i := range x {
		x[i] = float64(i%17) - 8
	}
	want := naiveMul(m, x)
	opt := spmv.DefaultTuneOptions()
	opt.TrySymmetric = true
	for _, threads := range []int{1, 2} {
		op, err := spmv.CompileParallel(m, opt, threads, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := op.Decisions()
		if !op.Symmetric() || len(d) != 1 || d[0].Format != "SymCSR" {
			t.Fatalf("threads=%d: symmetric=%v, decisions %+v; want one SymCSR decision", threads, op.Symmetric(), d)
		}
		if d[0].Fill > 0.6 {
			t.Errorf("threads=%d: symmetric fill %.2f, want ~0.5 (stored/logical)", threads, d[0].Fill)
		}
		general, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), threads, 1)
		if err != nil {
			t.Fatal(err)
		}
		if op.FootprintBytes() >= general.FootprintBytes() {
			t.Errorf("threads=%d: symmetric footprint %d not below general %d", threads, op.FootprintBytes(), general.FootprintBytes())
		}
		sym, err := spmv.CompileSymmetricParallel(m, threads)
		if err != nil {
			t.Fatal(err)
		}
		if op.KernelName() != sym.KernelName() || op.FootprintBytes() != sym.FootprintBytes() {
			t.Errorf("threads=%d: %s/%d B, CompileSymmetricParallel %s/%d B", threads, op.KernelName(), op.FootprintBytes(), sym.KernelName(), sym.FootprintBytes())
		}
		got, err := op.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sym.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("threads=%d row %d: %g, CompileSymmetricParallel %g", threads, i, got[i], ref[i])
			}
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("threads=%d row %d: %g, reference %g", threads, i, got[i], want[i])
			}
		}
	}
}

// TestTrySymmetricSkipsAsymmetric: the option is a no-op for asymmetric
// or rectangular matrices, and for a symmetric one whose general plan is
// smaller than its upper triangle, at every thread count — the general
// plan, decision for decision, byte for byte and bit for bit.
func TestTrySymmetricSkipsAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	opt := spmv.DefaultTuneOptions()
	opt.TrySymmetric = true
	// Dense 4×4 diagonal blocks: symmetric, but BCSR 4×4/16 is smaller
	// than the upper triangle, so the general plan wins and is encoded.
	// 120 blocks split into 2 or 3 equal parts of whole blocks.
	blocks := spmv.NewMatrix(480, 480)
	for b := 0; b < 120; b++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				v := 1.0
				if i == j {
					v = 4
				}
				if err := blocks.Set(4*b+i, 4*b+j, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !blocks.IsSymmetric() {
		t.Fatal("block-diagonal matrix is not symmetric")
	}
	for _, m := range []*spmv.Matrix{
		buildRandom(t, rng, 300, 300, 2000),
		buildRandom(t, rng, 200, 400, 2000),
		blocks,
	} {
		rows, cols := m.Dims()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for _, threads := range []int{1, 2, 3} {
			op, err := spmv.CompileParallel(m, opt, threads, 1)
			if err != nil {
				t.Fatal(err)
			}
			general, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), threads, 1)
			if err != nil {
				t.Fatal(err)
			}
			if op.Symmetric() || op.KernelName() != general.KernelName() || op.FootprintBytes() != general.FootprintBytes() {
				t.Fatalf("%dx%d threads=%d: symmetric=%v %s/%d B, want the general %s/%d B",
					rows, cols, threads, op.Symmetric(), op.KernelName(), op.FootprintBytes(), general.KernelName(), general.FootprintBytes())
			}
			if !slices.Equal(op.Decisions(), general.Decisions()) {
				t.Fatalf("%dx%d threads=%d: decisions %+v, general %+v", rows, cols, threads, op.Decisions(), general.Decisions())
			}
			got, err := op.Mul(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := general.Mul(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%dx%d threads=%d row %d: %g, general %g", rows, cols, threads, i, got[i], want[i])
				}
			}
		}
	}
}
