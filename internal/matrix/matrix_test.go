package matrix

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fillRandom adds n random entries at distinct positions.
func fillRandom(m *COO, rng *rand.Rand, n int) *COO {
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

// cooEqual compares two COO matrices as multisets of triplets.
func cooEqual(a, b *COO) bool {
	if a.R != b.R || a.C != b.C || len(a.Val) != len(b.Val) {
		return false
	}
	key := func(m *COO, k int) [3]float64 {
		return [3]float64{float64(m.RowIdx[k]), float64(m.ColIdx[k]), m.Val[k]}
	}
	ak := make([][3]float64, len(a.Val))
	bk := make([][3]float64, len(b.Val))
	for k := range a.Val {
		ak[k] = key(a, k)
		bk[k] = key(b, k)
	}
	less := func(s [][3]float64) func(i, j int) bool {
		return func(i, j int) bool {
			for d := 0; d < 3; d++ {
				if s[i][d] != s[j][d] {
					return s[i][d] < s[j][d]
				}
			}
			return false
		}
	}
	sort.Slice(ak, less(ak))
	sort.Slice(bk, less(bk))
	for k := range ak {
		if ak[k] != bk[k] {
			return false
		}
	}
	return true
}

func TestCOOAppendBounds(t *testing.T) {
	m := NewCOO(3, 4)
	if err := m.Append(0, 0, 1); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 4}} {
		if err := m.Append(bad[0], bad[1], 1); err == nil {
			t.Errorf("Append(%d,%d) accepted out-of-range entry", bad[0], bad[1])
		}
	}
}

func TestCOOMulAddReference(t *testing.T) {
	// 2x3 matrix [1 0 2; 0 3 0] times x=[1,2,3] plus y=[10,20].
	m, err := FromTriplets(2, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{10, 20}
	if err := m.MulAdd(y, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if y[0] != 17 || y[1] != 26 {
		t.Errorf("y = %v, want [17 26]", y)
	}
}

func TestCOOMulAddShapeErrors(t *testing.T) {
	m := NewCOO(2, 3)
	if err := m.MulAdd(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("wrong y length accepted")
	}
	if err := m.MulAdd(make([]float64, 2), make([]float64, 2)); err == nil {
		t.Error("wrong x length accepted")
	}
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(50), 1+rng.Intn(50)
		m := fillRandom(NewCOO(rows, cols), rng, rng.Intn(rows*cols/2+1))
		csr, err := NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		if err := csr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !cooEqual(m, csr.ToCOO()) {
			t.Fatalf("trial %d: CSR round trip lost entries", trial)
		}
	}
}

func TestCSRSumsDuplicates(t *testing.T) {
	m, _ := FromTriplets(2, 2, []Triplet{
		{0, 1, 2}, {0, 1, 3}, {1, 0, 5},
	})
	csr, err := NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	if csr.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after duplicate summing", csr.NNZ())
	}
	got := csr.ToCOO()
	want, _ := FromTriplets(2, 2, []Triplet{{0, 1, 5}, {1, 0, 5}})
	if !cooEqual(got, want) {
		t.Errorf("duplicates not summed: %+v", got)
	}
}

func TestCSR16Overflow(t *testing.T) {
	m := NewCOO(2, 70000)
	if _, err := NewCSR[uint16](m); err == nil {
		t.Error("CSR16 accepted 70000 columns")
	}
	if _, err := NewCSR[uint32](m); err != nil {
		t.Errorf("CSR32 rejected 70000 columns: %v", err)
	}
	// 65536 columns exactly fit uint16 (max index 65535).
	m2 := NewCOO(2, 65536)
	if _, err := NewCSR[uint16](m2); err != nil {
		t.Errorf("CSR16 rejected 65536 columns: %v", err)
	}
	// NarrowCSR draws the same line.
	for _, m := range []*COO{m, m2} {
		src, err := NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NarrowCSR(src); (m.C > 65536) != errors.Is(err, ErrIndexOverflow) {
			t.Errorf("NarrowCSR of %d columns: err = %v", m.C, err)
		}
	}
}

func TestCSREmptyAndEdge(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {1, 1}, {5, 1}, {1, 5}, {3, 3}} {
		m := NewCOO(dims[0], dims[1])
		csr, err := NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		if err := csr.Validate(); err != nil {
			t.Errorf("empty %v: %v", dims, err)
		}
		if csr.NNZ() != 0 {
			t.Errorf("empty %v: nnz %d", dims, csr.NNZ())
		}
	}
}

func TestCSRSubmatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := fillRandom(NewCOO(40, 60), rng, 400)
	csr, err := NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	sub := csr.Submatrix(10, 30, 15, 45).ToCOO()
	// Rebuild by brute force from the original.
	want := NewCOO(20, 30)
	for k := range m.Val {
		r, c := int(m.RowIdx[k]), int(m.ColIdx[k])
		if r >= 10 && r < 30 && c >= 15 && c < 45 {
			want.RowIdx = append(want.RowIdx, int32(r-10))
			want.ColIdx = append(want.ColIdx, int32(c-15))
			want.Val = append(want.Val, m.Val[k])
		}
	}
	if !cooEqual(sub, want) {
		t.Error("submatrix extraction mismatch")
	}
}

func TestBCSRRoundTripAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := fillRandom(NewCOO(37, 53), rng, 300) // deliberately non-multiple dims
	csr, err := NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	canon := csr.ToCOO()
	for _, shape := range BlockShapes {
		b, err := NewBCSR[uint32](csr, shape)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if !cooEqual(canon, b.ToCOO()) {
			t.Errorf("shape %v: BCSR round trip mismatch", shape)
		}
		if b.Stored() != b.Blocks()*int64(shape.Area()) {
			t.Errorf("shape %v: stored %d != blocks %d * area %d",
				shape, b.Stored(), b.Blocks(), shape.Area())
		}
		if b.NNZ() != canon.NNZ() {
			t.Errorf("shape %v: nnz %d want %d", shape, b.NNZ(), canon.NNZ())
		}
		if b.FillRatio() < 1 {
			t.Errorf("shape %v: fill ratio %f < 1", shape, b.FillRatio())
		}
	}
}

func TestBCOORoundTripAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := fillRandom(NewCOO(41, 29), rng, 200)
	csr, err := NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	canon := csr.ToCOO()
	for _, shape := range BlockShapes {
		b, err := NewBCOO[uint32](csr, shape)
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if !cooEqual(canon, b.ToCOO()) {
			t.Errorf("shape %v: BCOO round trip mismatch", shape)
		}
	}
}

func TestBCSR1x1MatchesCSRFootprintShape(t *testing.T) {
	// A 1x1 BCSR stores exactly one value and one index per nonzero, like
	// CSR but with per-block-row pointers; stored == nnz (no fill).
	rng := rand.New(rand.NewSource(4))
	m := fillRandom(NewCOO(64, 64), rng, 500)
	csr, _ := NewCSR[uint32](m)
	b, err := NewBCSR[uint32](csr, BlockShape{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Stored() != csr.NNZ() {
		t.Errorf("1x1 BCSR stored %d != nnz %d", b.Stored(), csr.NNZ())
	}
	if b.FillRatio() != 1 {
		t.Errorf("1x1 fill ratio %f != 1", b.FillRatio())
	}
}

func TestBCSRDenseFillRatioIsOne(t *testing.T) {
	// A dense matrix register-blocks with zero fill for any aligned shape.
	m := NewCOO(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			_ = m.Append(i, j, float64(i*16+j+1))
		}
	}
	csr, _ := NewCSR[uint32](m)
	for _, shape := range BlockShapes {
		b, err := NewBCSR[uint32](csr, shape)
		if err != nil {
			t.Fatal(err)
		}
		if b.FillRatio() != 1 {
			t.Errorf("dense fill ratio for %v = %f, want 1", shape, b.FillRatio())
		}
	}
}

func TestBCSRRejectsBadShape(t *testing.T) {
	m := NewCOO(4, 4)
	csr, _ := NewCSR[uint32](m)
	for _, bad := range []BlockShape{{3, 1}, {1, 3}, {8, 1}, {0, 2}, {2, 0}} {
		if _, err := NewBCSR[uint32](csr, bad); err == nil {
			t.Errorf("shape %v accepted", bad)
		}
	}
}

func TestBCOOIndexCompression(t *testing.T) {
	// 100_000 columns do not fit uint16 at 1x1, but tile columns at 1x4
	// (25_000) do.
	m := NewCOO(10, 100000)
	for j := 0; j < 100; j++ {
		_ = m.Append(j%10, j*997, 1.0)
	}
	csr, _ := NewCSR[uint32](m)
	if _, err := NewBCSR[uint16](csr, BlockShape{1, 1}); err == nil {
		t.Error("uint16 1x1 accepted 100000 columns")
	}
	if _, err := NewBCSR[uint16](csr, BlockShape{1, 4}); err != nil {
		t.Errorf("uint16 1x4 rejected 25000 tile columns: %v", err)
	}
}

func TestFootprintOrdering(t *testing.T) {
	// For a strongly blocked matrix, BCSR 4x4/16 must beat CSR32 footprint;
	// this is the whole premise of the paper's data-structure optimization.
	m := NewCOO(1024, 1024)
	for bi := 0; bi < 256; bi++ {
		r0, c0 := (bi%16)*64, (bi/16)*64
		for dr := 0; dr < 4; dr++ {
			for dc := 0; dc < 4; dc++ {
				_ = m.Append(r0+dr, c0+dc, 1.0)
			}
		}
	}
	csr, _ := NewCSR[uint32](m)
	b, err := NewBCSR[uint16](csr, BlockShape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.FillRatio() != 1 {
		t.Fatalf("fill ratio %f, want 1 for aligned 4x4 blocks", b.FillRatio())
	}
	if b.FootprintBytes() >= csr.FootprintBytes() {
		t.Errorf("BCSR 4x4/16 footprint %d not below CSR32 %d",
			b.FootprintBytes(), csr.FootprintBytes())
	}
}

func TestStats(t *testing.T) {
	m, _ := FromTriplets(4, 4, []Triplet{
		{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 1, 1}, {3, 3, 1},
	})
	s := m.ComputeStats()
	if s.NNZ != 5 || s.EmptyRows != 1 || s.Bandwidth != 1 {
		t.Errorf("stats = %+v", s)
	}
	if !s.Symmetric {
		t.Error("pattern is symmetric but reported asymmetric")
	}
	if s.DiagFraction != 3.0/5.0 {
		t.Errorf("diag fraction %f, want 0.6", s.DiagFraction)
	}
	m2, _ := FromTriplets(2, 2, []Triplet{{0, 1, 1}})
	if m2.ComputeStats().Symmetric {
		t.Error("asymmetric pattern reported symmetric")
	}
}

func TestCacheBlockedValidateAndFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := fillRandom(NewCOO(32, 32), rng, 120)
	csr, _ := NewCSR[uint32](m)
	mk := func(r0, r1, c0, c1 int) CacheBlock {
		enc := csr.Submatrix(r0, r1, c0, c1)
		return CacheBlock{RowOff: r0, ColOff: c0, Rows: r1 - r0, Cols: c1 - c0, Enc: enc}
	}
	cb := NewCacheBlocked(32, 32, []CacheBlock{
		mk(0, 16, 0, 16), mk(0, 16, 16, 32), mk(16, 32, 0, 16), mk(16, 32, 16, 32),
	})
	if err := cb.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cooEqual(cb.ToCOO(), csr.ToCOO()) {
		t.Error("cache-blocked flatten mismatch")
	}
	if cb.NNZ() != csr.NNZ() {
		t.Errorf("nnz %d want %d", cb.NNZ(), csr.NNZ())
	}
	// Overlapping blocks must be rejected.
	bad := NewCacheBlocked(32, 32, []CacheBlock{mk(0, 16, 0, 16), mk(8, 24, 8, 24)})
	if err := bad.Validate(); err == nil {
		t.Error("overlapping cache blocks accepted")
	}
	// Out-of-range block must be rejected.
	blk := mk(16, 32, 16, 32)
	blk.RowOff = 20
	bad2 := NewCacheBlocked(32, 32, []CacheBlock{blk})
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range cache block accepted")
	}
}

// quick-check property: CSR conversion preserves the triplet multiset for
// arbitrary small matrices.
func TestQuickCSRPreservesTriplets(t *testing.T) {
	f := func(seed int64, rows8, cols8 uint8) bool {
		rows := int(rows8%32) + 1
		cols := int(cols8%32) + 1
		rng := rand.New(rand.NewSource(seed))
		m := fillRandom(NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := NewCSR[uint32](m)
		if err != nil {
			return false
		}
		return cooEqual(m, csr.ToCOO()) && csr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// quick-check property: for any matrix and any block shape, BCSR and BCOO
// both represent exactly the same nonzeros as the source.
func TestQuickBlockingPreservesTriplets(t *testing.T) {
	f := func(seed int64, shapeIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := fillRandom(NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := NewCSR[uint32](m)
		if err != nil {
			return false
		}
		shape := BlockShapes[int(shapeIdx)%len(BlockShapes)]
		canon := csr.ToCOO()
		b, err := NewBCSR[uint32](csr, shape)
		if err != nil {
			return false
		}
		bc, err := NewBCOO[uint32](csr, shape)
		if err != nil {
			return false
		}
		return cooEqual(canon, b.ToCOO()) && cooEqual(canon, bc.ToCOO())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// quick-check property: footprint accounting is consistent — values alone
// occupy 8*Stored bytes, so every format's footprint is at least that.
func TestQuickFootprintLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		m := fillRandom(NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := NewCSR[uint32](m)
		if err != nil {
			return false
		}
		formats := []Format{m, csr}
		for _, s := range BlockShapes {
			b, err := NewBCSR[uint32](csr, s)
			if err != nil {
				return false
			}
			formats = append(formats, b)
		}
		for _, fm := range formats {
			if fm.FootprintBytes() < 8*fm.Stored() {
				return false
			}
			if fm.Stored() < fm.NNZ() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexBytes(t *testing.T) {
	if IndexBytes[uint16]() != 2 || IndexBytes[uint32]() != 4 {
		t.Error("IndexBytes wrong")
	}
	if MaxIndex[uint16]() != math.MaxUint16 || MaxIndex[uint32]() != math.MaxUint32 {
		t.Error("MaxIndex wrong")
	}
}
