package tune

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/matrix"
)

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

func reference(m *matrix.COO, y, x []float64) {
	for k := range m.Val {
		y[m.RowIdx[k]] += m.Val[k] * x[m.ColIdx[k]]
	}
}

// encode encodes a serial plan, failing the test on an error.
func encode(t *testing.T, p *Plan) matrix.Format {
	t.Helper()
	parts, err := p.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	return parts[0].Enc
}

// verify runs an encoding through its kernel and checks against the
// reference multiply.
func verify(t *testing.T, enc matrix.Format, m *matrix.COO) {
	t.Helper()
	k, err := kernel.Compile(enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(321))
	x := make([]float64, m.C)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.R)
	reference(m, want, x)
	got := make([]float64, m.R)
	if err := k.MulAdd(got, x); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("tuned kernel wrong at row %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestTuneDisabledIsCSR32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := fillRandom(matrix.NewCOO(50, 50), rng, 300)
	csr, _ := matrix.NewCSR[uint32](m)
	res, err := NewPlan(csr, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 1 || res.Decisions[0].Format != "CSR" || res.Decisions[0].IndexBits != 32 {
		t.Errorf("decisions %+v, want single CSR/32", res.Decisions)
	}
	if res.TotalFootprint != res.BaselineFootprint {
		t.Errorf("footprint %d != baseline %d", res.TotalFootprint, res.BaselineFootprint)
	}
	verify(t, encode(t, res), m)
}

func TestTuneNeverWorseThanBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(80), 1+rng.Intn(80)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, _ := matrix.NewCSR[uint32](m)
		opt := Options{RegisterBlock: true, ReduceIndices: true, AllowBCOO: true}
		res, err := NewPlan(csr, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalFootprint > res.BaselineFootprint {
			t.Errorf("trial %d: tuned footprint %d exceeds CSR32 %d",
				trial, res.TotalFootprint, res.BaselineFootprint)
		}
		verify(t, encode(t, res), m)
	}
}

func TestTunePicksRegisterBlocksForFEM(t *testing.T) {
	m, err := gen.GenerateByName("FEM/Cantilever", 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := matrix.NewCSR[uint32](m)
	res, err := NewPlan(csr, Options{RegisterBlock: true, ReduceIndices: true, AllowBCOO: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Decisions[0]
	if d.Format == "CSR" || d.Shape.Area() <= 1 {
		t.Errorf("FEM matrix tuned to %s %v, expected a real register block", d.Format, d.Shape)
	}
	if d.IndexBits != 16 {
		t.Errorf("small-dimension matrix got %d-bit indices, want 16", d.IndexBits)
	}
	if res.Savings() < 0.2 {
		t.Errorf("FEM savings %.2f, want >= 0.2 (paper: transformations can halve storage)",
			res.Savings())
	}
	verify(t, encode(t, res), m)
}

func TestTuneKeepsCSRForScatter(t *testing.T) {
	// A scatter matrix with no block structure should not pay fill: the
	// winner must store nnz values only (fill == 1) — either CSR or a
	// blocked format that degenerates to singleton tiles.
	m, err := gen.GenerateByName("Economics", 0.005, 4)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := matrix.NewCSR[uint32](m)
	res, err := NewPlan(csr, Options{RegisterBlock: true, ReduceIndices: true, AllowBCOO: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Decisions[0]
	if d.Fill > 1.6 {
		t.Errorf("scatter matrix accepted fill %.2f", d.Fill)
	}
	verify(t, encode(t, res), m)
}

func TestTunePicksBCOOForEmptyRows(t *testing.T) {
	// Rows mostly empty: CSR pays 8 bytes per row pointer for nothing;
	// BCOO must win on footprint.
	m := matrix.NewCOO(8192, 64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		_ = m.Append(rng.Intn(32), rng.Intn(64), rng.NormFloat64()) // top rows only
	}
	csr, _ := matrix.NewCSR[uint32](m)
	res, err := NewPlan(csr, Options{RegisterBlock: true, ReduceIndices: true, AllowBCOO: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions[0].Format != "BCOO" {
		t.Errorf("empty-row matrix tuned to %s, want BCOO", res.Decisions[0].Format)
	}
	verify(t, encode(t, res), m)
}

func TestCacheBlockingProducesBlocksForWideMatrices(t *testing.T) {
	// LP twin: wide source vector, must be split under a small budget.
	m, err := gen.GenerateByName("LP", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := matrix.NewCSR[uint32](m)
	opt := Options{
		RegisterBlock: true, ReduceIndices: true, AllowBCOO: true,
		CacheBlock: true, CacheBudgetBytes: 64 << 10, LineBytes: 64,
	}
	res, err := NewPlan(csr, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) < 2 {
		t.Fatalf("LP twin produced %d cache blocks, want several", len(res.Decisions))
	}
	enc := encode(t, res)
	verify(t, enc, m)
	// Mixed per-block decisions are allowed; all blocks must be in range.
	cb, ok := enc.(*matrix.CacheBlocked)
	if !ok {
		t.Fatalf("expected CacheBlocked, got %T", enc)
	}
	if err := cb.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCacheBlockingSkippedWhenVectorsFit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := fillRandom(matrix.NewCOO(100, 100), rng, 800)
	csr, _ := matrix.NewCSR[uint32](m)
	opt := Options{CacheBlock: true, CacheBudgetBytes: 1 << 20, LineBytes: 64}
	res, err := NewPlan(csr, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 1 {
		t.Errorf("small matrix cache-blocked into %d blocks", len(res.Decisions))
	}
	verify(t, encode(t, res), m)
}

func TestTLBBlocking(t *testing.T) {
	// Wide scatter with a tiny TLB budget: expect column splits even
	// without cache blocking.
	rng := rand.New(rand.NewSource(7))
	m := fillRandom(matrix.NewCOO(64, 1<<15), rng, 4000)
	csr, _ := matrix.NewCSR[uint32](m)
	opt := Options{TLBBlock: true, PageBytes: 4096, TLBEntries: 8}
	res, err := NewPlan(csr, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) < 2 {
		t.Errorf("TLB blocking produced %d blocks, want >= 2", len(res.Decisions))
	}
	verify(t, encode(t, res), m)
}

func TestTuneParallel(t *testing.T) {
	m, err := gen.GenerateByName("FEM/Harbor", 0.01, 8)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := matrix.NewCSR[uint32](m)
	plan, err := NewPlan(csr, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := plan.Encode(2)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kernel.NewParallel(csr.R, csr.C, parts)
	if err != nil {
		t.Fatal(err)
	}
	results := plan.Parts
	if pk.Threads() != 4 || len(results) != 4 {
		t.Fatalf("threads %d, results %d", pk.Threads(), len(results))
	}
	rng := rand.New(rand.NewSource(100))
	x := make([]float64, m.C)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, m.R)
	reference(m, want, x)
	got := make([]float64, m.R)
	if err := pk.MulAdd(got, x); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("parallel tuned kernel wrong at row %d", i)
		}
	}
}

func TestCountTilesMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(50), 1+rng.Intn(50)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, _ := matrix.NewCSR[uint32](m)
		for _, shape := range matrix.BlockShapes {
			want, err := matrix.NewBCSR[uint32](csr, shape)
			if err != nil {
				t.Fatal(err)
			}
			if got := countTiles(csr.Pack(), shape.R)[bits.TrailingZeros(uint(shape.C))]; got != want.Blocks() {
				t.Errorf("countTiles %v = %d, materialized %d", shape, got, want.Blocks())
			}
		}
	}
}

// Property: the tuner's predicted footprint always matches the encoded
// footprint (Encode's materialize cross-checks it and errors on mismatch),
// and savings are in [0,1).
func TestQuickTuneConsistency(t *testing.T) {
	f := func(seed int64, flags uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			return false
		}
		opt := Options{
			RegisterBlock: flags&1 != 0,
			ReduceIndices: flags&2 != 0,
			AllowBCOO:     flags&4 != 0,
		}
		res, err := NewPlan(csr, opt, 1)
		if err != nil {
			return false
		}
		if _, err := res.Encode(1); err != nil {
			return false
		}
		return res.Savings() >= 0 && res.Savings() < 1 &&
			res.TotalFootprint > 0 || m.NNZ() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDefaultOptionsSkipOneRowTiles pins the library default on the two
// twins where the one-row rule matters. The LP twin's smallest encoding
// under all nine shapes is BCSR 1×2/16, whose single-row tiles keep CSR's
// dependent add chain and add fill, so it must tune to CSR. The webbase
// twin's cache blocks are mostly empty rows, so their best is BCOO 1×1,
// which the rule must keep: dropping every one-row shape sends them back
// to CSR's row pointers.
func TestDefaultOptionsSkipOneRowTiles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scale  float64
		format string
	}{
		{"LP", 0.1, "CSR"},
		{"webbase", 0.25, "BCOO"},
	} {
		m, err := gen.GenerateByName(tc.name, tc.scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		csr, _ := matrix.NewCSR[uint32](m)
		res, err := NewPlan(csr, DefaultOptions(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Decisions {
			if d.Format != tc.format || d.Shape != (matrix.BlockShape{R: 1, C: 1}) {
				t.Errorf("%s@%g block %d tuned to %s %v/%d, want %s 1×1",
					tc.name, tc.scale, i, d.Format, d.Shape, d.IndexBits, tc.format)
			}
		}
		verify(t, encode(t, res), m)
	}
}

// TestFootprintMatchesEncodedPlan: the closed-form footprint the compile
// path compares against SymCSR, the plan's TotalFootprint, is the
// footprint of the encoding Encode builds from it — whole-matrix,
// cache-blocked and TLB-blocked plans, serial and across thread parts.
func TestFootprintMatchesEncodedPlan(t *testing.T) {
	lp, err := gen.GenerateByName("LP", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	harbor, err := gen.GenerateByName("FEM/Harbor", 0.01, 8)
	if err != nil {
		t.Fatal(err)
	}
	wide := fillRandom(matrix.NewCOO(64, 1<<15), rand.New(rand.NewSource(7)), 4000)
	cacheBlocked := DefaultOptions()
	cacheBlocked.CacheBudgetBytes = 64 << 10
	for _, tc := range []struct {
		name string
		m    *matrix.COO
		opt  Options
	}{
		{"lp-cache-blocked", lp, cacheBlocked},
		{"harbor-default", harbor, DefaultOptions()},
		{"wide-tlb", wide, Options{RegisterBlock: true, TLBBlock: true, PageBytes: 4096, TLBEntries: 8}},
		{"harbor-naive", harbor, Options{}},
	} {
		csr, err := matrix.NewCSR[uint32](tc.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 3} {
			plan, err := NewPlan(csr, tc.opt, threads)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := plan.Encode(1)
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, p := range parts {
				want += p.Enc.FootprintBytes()
			}
			if got := plan.TotalFootprint; got != want {
				t.Errorf("%s threads=%d: plan footprint %d, encoded %d", tc.name, threads, got, want)
			}
		}
	}
}

// TestPlanEncodesOnce: Encode tags the thread parts with their NUMA nodes
// over the plan's row ranges, and a plan whose cuts Encode has let go
// refuses a second encoding instead of building from nothing.
func TestPlanEncodesOnce(t *testing.T) {
	m, err := gen.GenerateByName("LP", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := matrix.NewCSR[uint32](m)
	opt := DefaultOptions()
	opt.CacheBudgetBytes = 64 << 10
	plan, err := NewPlan(csr, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := plan.Encode(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(plan.Parts) {
		t.Fatalf("%d encoded parts, plan has %d", len(parts), len(plan.Parts))
	}
	for i, p := range parts {
		if r := plan.Parts[i].Range; p.Range.Lo != r.Lo || p.Range.Hi != r.Hi || p.Range.Node != i*2/len(parts) {
			t.Errorf("part %d: range %+v, plan %+v", i, p.Range, r)
		}
	}
	if _, err := plan.Encode(2); err == nil {
		t.Error("a second Encode succeeded")
	}
}
