package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// TestMultiVecMatchesPerVectorReference: the multiple-vectors sweep over
// CSR (NewWide on a CSR32) matches k independent reference products.
func TestMultiVecMatchesPerVectorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := fillRandom(matrix.NewCOO(80, 120), rng, 1500)
	csr, _ := matrix.NewCSR[uint32](m)
	for _, nv := range []int{1, 2, 3, 4, 7, 8} {
		mv, err := NewWide(csr, nv)
		if err != nil {
			t.Fatal(err)
		}
		if mv.Width() != nv {
			t.Errorf("vectors %d", mv.Width())
		}
		xs := make([][]float64, nv)
		wants := make([][]float64, nv)
		for v := range xs {
			xs[v] = make([]float64, 120)
			for i := range xs[v] {
				xs[v][i] = rng.NormFloat64()
			}
			wants[v] = make([]float64, 80)
			reference(m, wants[v], xs[v])
		}
		xBlock := interleave(xs)
		yBlock := make([]float64, 80*nv)
		if err := mv.MulAddBlock(yBlock, xBlock); err != nil {
			t.Fatal(err)
		}
		got := deinterleave(yBlock, nv)
		for v := range got {
			if d := maxAbsDiff(got[v], wants[v]); d > 1e-12 {
				t.Errorf("nv=%d vector %d: diff %g", nv, v, d)
			}
		}
	}
}

// TestMultiVecRowRangesTileFullSweep verifies the row-sharding contract:
// MulAddCSRRows over any tiling of [0, R) equals one full NewWide sweep.
func TestMultiVecRowRangesTileFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := fillRandom(matrix.NewCOO(97, 61), rng, 1200)
	csr, _ := matrix.NewCSR[uint32](m)
	for _, nv := range []int{1, 2, 3, 4, 6, 8} {
		mv, err := NewWide(csr, nv)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 61*nv)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, 97*nv)
		if err := mv.MulAddBlock(want, x); err != nil {
			t.Fatal(err)
		}
		for _, bounds := range [][]int{
			{0, 97},
			{0, 1, 97},
			{0, 30, 31, 96, 97},
			{0, 10, 20, 40, 80, 97},
		} {
			got := make([]float64, 97*nv)
			for i := 0; i+1 < len(bounds); i++ {
				if err := MulAddCSRRows(csr, nv, got, x, bounds[i], bounds[i+1]); err != nil {
					t.Fatal(err)
				}
			}
			if d := maxAbsDiff(got, want); d != 0 {
				t.Errorf("nv=%d bounds=%v: diff %g from full sweep", nv, bounds, d)
			}
		}
		if err := MulAddCSRRows(csr, nv, make([]float64, 97*nv), x, 5, 3); err == nil {
			t.Error("inverted range accepted")
		}
		if err := MulAddCSRRows(csr, nv, make([]float64, 97*nv), x, -1, 3); err == nil {
			t.Error("negative range accepted")
		}
		if err := MulAddCSRRows(csr, nv, make([]float64, 97*nv), x, 0, 98); err == nil {
			t.Error("out-of-bounds range accepted")
		}
	}
}

// TestMultiVecValidation: the CSR multi-RHS doors — NewWide and the row
// function MulAddCSRRows — refuse a width below 1 and mis-sized blocks.
func TestMultiVecValidation(t *testing.T) {
	m := matrix.NewCOO(4, 4)
	csr, _ := matrix.NewCSR[uint32](m)
	if _, err := NewWide(csr, 0); err == nil {
		t.Error("0 vectors accepted")
	}
	if err := MulAddCSRRows(csr, 0, nil, nil, 0, 0); err == nil {
		t.Error("0 vectors accepted by the row function")
	}
	mv, _ := NewWide(csr, 2)
	for _, sweep := range []func(y, x []float64) error{
		mv.MulAddBlock,
		func(y, x []float64) error { return MulAddCSRRows(csr, 2, y, x, 0, 4) },
	} {
		if err := sweep(make([]float64, 8), make([]float64, 7)); err == nil {
			t.Error("bad x length accepted")
		}
		if err := sweep(make([]float64, 7), make([]float64, 8)); err == nil {
			t.Error("bad y length accepted")
		}
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	vs := [][]float64{{1, 2, 3}, {4, 5, 6}}
	block := interleave(vs)
	want := []float64{1, 4, 2, 5, 3, 6}
	for i := range want {
		if block[i] != want[i] {
			t.Fatalf("block %v", block)
		}
	}
	back := deinterleave(block, 2)
	for v := range vs {
		for i := range vs[v] {
			if back[v][i] != vs[v][i] {
				t.Fatal("round trip mismatch")
			}
		}
	}
}

func TestQuickMultiVecAgreesWithSingle(t *testing.T) {
	f := func(seed int64, nv8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			return false
		}
		nv := int(nv8%6) + 1
		mv, err := NewWide(csr, nv)
		if err != nil {
			return false
		}
		xs := make([][]float64, nv)
		for v := range xs {
			xs[v] = make([]float64, cols)
			for i := range xs[v] {
				xs[v][i] = rng.NormFloat64()
			}
		}
		xBlock := interleave(xs)
		yBlock := make([]float64, rows*nv)
		if err := mv.MulAddBlock(yBlock, xBlock); err != nil {
			return false
		}
		got := deinterleave(yBlock, nv)
		for v := range got {
			want := make([]float64, rows)
			reference(m, want, xs[v])
			if maxAbsDiff(got[v], want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
