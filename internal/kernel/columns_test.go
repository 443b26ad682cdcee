package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// buildColParts splits a CSR into n vertical slabs encoded as CSR32.
func buildColParts(t testing.TB, csr *matrix.CSR32, n int) []ColPart {
	t.Helper()
	spans := partition.FixedWidthSpans(csr.C, (csr.C+n-1)/n)
	var parts []ColPart
	for _, s := range spans {
		enc := csr.Submatrix(0, csr.R, s.Lo, s.Hi)
		parts = append(parts, ColPart{Span: s, Enc: enc})
	}
	return parts
}

func TestParallelColumnsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := fillRandom(matrix.NewCOO(90, 400), rng, 3000)
	csr, _ := matrix.NewCSR[uint32](m)
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 90)
	reference(m, want, x)
	for _, n := range []int{1, 2, 3, 5} {
		pk, err := NewParallelColumns(90, 400, buildColParts(t, csr, n))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 90)
		if err := pk.MulAdd(got, x); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("n=%d: diff %g", n, d)
		}
		if pk.Threads() > n {
			t.Errorf("threads %d > requested %d", pk.Threads(), n)
		}
	}
}

func TestParallelColumnsWithBlockedSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := fillRandom(matrix.NewCOO(64, 256), rng, 1200)
	csr, _ := matrix.NewCSR[uint32](m)
	spans := partition.FixedWidthSpans(256, 64)
	var parts []ColPart
	for i, s := range spans {
		subCSR := csr.Submatrix(0, 64, s.Lo, s.Hi)
		var enc matrix.Format = subCSR
		if i%2 == 1 {
			b, err := matrix.NewBCSR[uint16](subCSR, matrix.BlockShape{R: 2, C: 4})
			if err != nil {
				t.Fatal(err)
			}
			enc = b
		}
		parts = append(parts, ColPart{Span: s, Enc: enc})
	}
	pk, err := NewParallelColumns(64, 256, parts)
	if err != nil {
		t.Fatal(err)
	}
	checkKernel(t, pk, m, 1e-9)
}

func TestParallelColumnsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := fillRandom(matrix.NewCOO(10, 20), rng, 50)
	csr, _ := matrix.NewCSR[uint32](m)
	parts := buildColParts(t, csr, 2)
	// Gap.
	if _, err := NewParallelColumns(10, 20, parts[:1]); err == nil {
		t.Error("column gap accepted")
	}
	// Wrong dims.
	bad := parts
	badEnc := csr.Submatrix(0, 5, 0, 10)
	bad[0].Enc = badEnc
	if _, err := NewParallelColumns(10, 20, bad); err == nil {
		t.Error("wrong slab dims accepted")
	}
	// Shape errors at multiply time.
	good, err := NewParallelColumns(10, 20, buildColParts(t, csr, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.MulAdd(make([]float64, 9), make([]float64, 20)); err == nil {
		t.Error("short y accepted")
	}
}

func TestSegmentedScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial, dims := range [][2]int{{100, 100}, {1, 500}, {500, 1}, {37, 53}} {
		m := fillRandom(matrix.NewCOO(dims[0], dims[1]), rng, dims[0]*dims[1]/10+1)
		csr, _ := matrix.NewCSR[uint32](m)
		x := make([]float64, dims[1])
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, dims[0])
		reference(m, want, x)
		for _, threads := range []int{1, 2, 3, 7, 16} {
			ss, err := NewSegmentedScan(csr, threads)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, dims[0])
			if err := ss.MulAdd(got, x); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got, want); d > 1e-9 {
				t.Errorf("trial %d threads=%d: diff %g", trial, threads, d)
			}
		}
	}
}

func TestSegmentedScanSingleHugeRow(t *testing.T) {
	// One row spanning every thread: the boundary-merge path for rows
	// shared by 3+ threads.
	m := matrix.NewCOO(3, 1000)
	rng := rand.New(rand.NewSource(25))
	for j := 0; j < 1000; j++ {
		_ = m.Append(1, j, rng.NormFloat64())
	}
	csr, _ := matrix.NewCSR[uint32](m)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 3)
	reference(m, want, x)
	ss, err := NewSegmentedScan(csr, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 3)
	if err := ss.MulAdd(got, x); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("huge-row diff %g", d)
	}
}

func TestSegmentedScanEmptyAndValidation(t *testing.T) {
	empty := matrix.NewCOO(5, 5)
	csr, _ := matrix.NewCSR[uint32](empty)
	ss, err := NewSegmentedScan(csr, 4)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 5)
	if err := ss.MulAdd(y, make([]float64, 5)); err != nil {
		t.Fatal(err)
	}
	for _, v := range y {
		if v != 0 {
			t.Error("empty matrix wrote output")
		}
	}
	if _, err := NewSegmentedScan(csr, 0); err == nil {
		t.Error("0 threads accepted")
	}
	if err := ss.MulAdd(make([]float64, 4), make([]float64, 5)); err == nil {
		t.Error("short y accepted")
	}
}

// Property: all three parallelization strategies agree with the reference
// and with each other.
func TestQuickParallelStrategiesAgree(t *testing.T) {
	f := func(seed int64, threads8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			return false
		}
		threads := int(threads8%5) + 1
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		reference(m, want, x)

		// Row partitioning.
		part, err := partition.ByNNZ(csr.RowPtr, threads)
		if err != nil {
			return false
		}
		var rowParts []Part
		for _, rg := range part.Ranges {
			enc := csr.Submatrix(rg.Lo, rg.Hi, 0, cols)
			rowParts = append(rowParts, Part{Range: rg, Enc: enc})
		}
		rowK, err := NewParallel(rows, cols, rowParts)
		if err != nil {
			return false
		}

		// Column partitioning.
		spans := partition.FixedWidthSpans(cols, (cols+threads-1)/threads)
		var colParts []ColPart
		for _, s := range spans {
			enc := csr.Submatrix(0, rows, s.Lo, s.Hi)
			colParts = append(colParts, ColPart{Span: s, Enc: enc})
		}
		colK, err := NewParallelColumns(rows, cols, colParts)
		if err != nil {
			return false
		}

		// Segmented scan.
		segK, err := NewSegmentedScan(csr, threads)
		if err != nil {
			return false
		}

		for _, k := range []Kernel{rowK, colK, segK} {
			got := make([]float64, rows)
			if err := k.MulAdd(got, x); err != nil {
				return false
			}
			if maxAbsDiff(got, want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
