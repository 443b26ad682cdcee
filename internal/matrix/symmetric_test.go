package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSymmetric builds a random symmetric matrix of dimension n.
func randomSymmetric(rng *rand.Rand, n, pairs int) *COO {
	m := NewCOO(n, n)
	if max := n * (n + 1) / 2; pairs > max {
		pairs = max // cannot place more distinct upper-triangle positions
	}
	type pos struct{ r, c int32 }
	seen := map[pos]bool{}
	for len(seen) < pairs {
		i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
		if i > j {
			i, j = j, i
		}
		if seen[pos{i, j}] {
			continue
		}
		seen[pos{i, j}] = true
		v := rng.NormFloat64()
		_ = m.Append(int(i), int(j), v)
		if i != j {
			_ = m.Append(int(j), int(i), v)
		}
	}
	return m
}

func TestSymCSRHalvesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomSymmetric(rng, 200, 1500)
	sym, err := NewSymCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	if sym.NNZ() != full.NNZ() {
		t.Errorf("logical nnz %d vs %d", sym.NNZ(), full.NNZ())
	}
	if float64(sym.Stored()) > 0.6*float64(full.NNZ()) {
		t.Errorf("stored %d not near half of %d", sym.Stored(), full.NNZ())
	}
	if sym.FootprintBytes() >= full.FootprintBytes() {
		t.Errorf("footprint %d not below full %d", sym.FootprintBytes(), full.FootprintBytes())
	}
}

func TestSymCSRMulAddMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(80)
		m := randomSymmetric(rng, n, rng.Intn(n*4+1))
		sym, err := NewSymCSR(m)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		if err := m.MulAdd(want, x); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := sym.MulAdd(got, x); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d row %d: %g vs %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSymCSRRejectsAsymmetric(t *testing.T) {
	m, _ := FromTriplets(3, 3, []Triplet{
		{Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 3}, // mismatched values
	})
	if _, err := NewSymCSR(m); err == nil {
		t.Error("value-asymmetric matrix accepted")
	}
	m2, _ := FromTriplets(3, 3, []Triplet{{Row: 0, Col: 2, Val: 1}}) // missing mirror
	if _, err := NewSymCSR(m2); err == nil {
		t.Error("pattern-asymmetric matrix accepted")
	}
	rect := NewCOO(2, 3)
	if _, err := NewSymCSR(rect); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestSymCSRToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomSymmetric(rng, 50, 200)
	sym, err := NewSymCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	back := sym.ToCOO()
	// Compare as products (entries may reorder).
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 50)
	got := make([]float64, 50)
	if err := m.MulAdd(want, x); err != nil {
		t.Fatal(err)
	}
	if err := back.MulAdd(got, x); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatal("round trip product mismatch")
		}
	}
}

func TestSymCSRDiagonalOnly(t *testing.T) {
	m, _ := FromTriplets(3, 3, []Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 2}, {Row: 2, Col: 2, Val: 3},
	})
	sym, err := NewSymCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	if sym.NNZ() != 3 || sym.Stored() != 3 {
		t.Errorf("nnz %d stored %d", sym.NNZ(), sym.Stored())
	}
	y := make([]float64, 3)
	if err := sym.MulAdd(y, []float64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 || y[1] != 2 || y[2] != 3 {
		t.Errorf("y = %v", y)
	}
}

func TestQuickSymCSRCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		m := randomSymmetric(rng, n, rng.Intn(n*3+1))
		sym, err := NewSymCSR(m)
		if err != nil {
			return false
		}
		if sym.Stored() > m.NNZ() {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		if m.MulAdd(want, x) != nil || sym.MulAdd(got, x) != nil {
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

// FuzzSymmetric holds the one symmetry check — CSR.IsSymmetric, which
// NewSymCSR runs — to a dense transpose reference. Inputs are mirrored pairs that then may be perturbed: a
// duplicate is split into pieces summed in opposite orders on the two
// sides (0.1+0.2+0.3 rounds differently from 0.3+0.2+0.1), values come
// from a palette with explicit zeros, −0, NaN and an overflowing 1e308,
// and one entry may be added unmirrored, changed or dropped. Some shapes
// are rectangular, which is never symmetric.
func FuzzSymmetric(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(1), uint8(40), uint8(0))
	f.Add(int64(2), uint8(9), uint8(1), uint8(30), uint8(1))
	f.Add(int64(3), uint8(5), uint8(8), uint8(10), uint8(0))
	f.Add(int64(4), uint8(1), uint8(1), uint8(3), uint8(2))
	f.Add(int64(5), uint8(20), uint8(3), uint8(60), uint8(3))
	palette := []float64{1, -1, 0.1, 0.2, 0.3, 3, 0, math.Copysign(0, -1), math.NaN(), 1e308}
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, pairs8, perturb uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+int(rows8)%24, 1+int(rows8)%24
		if cols8%4 == 0 {
			cols = 1 + int(cols8/4)%24
		}
		val := func() float64 { return palette[rng.Intn(len(palette))] }
		m := NewCOO(rows, cols)
		for p := 0; p < int(pairs8)%64; p++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			pieces := []float64{val()}
			if rng.Intn(3) == 0 {
				pieces = append(pieces, val(), val())
			}
			for _, v := range pieces {
				_ = m.Append(i, j, v)
			}
			if i != j && j < rows && i < cols {
				for k := len(pieces) - 1; k >= 0; k-- {
					_ = m.Append(j, i, pieces[k])
				}
			}
		}
		if k := len(m.Val); k > 0 {
			switch k = rng.Intn(k); perturb % 4 {
			case 1:
				_ = m.Append(rng.Intn(rows), rng.Intn(cols), val())
			case 2:
				m.Val[k] = val()
			case 3:
				m.RowIdx = append(m.RowIdx[:k], m.RowIdx[k+1:]...)
				m.ColIdx = append(m.ColIdx[:k], m.ColIdx[k+1:]...)
				m.Val = append(m.Val[:k], m.Val[k+1:]...)
			}
		}

		stored, dense := denseOf(m)
		want := rows == cols
		for i := 0; i < rows && want; i++ {
			for j := 0; j < i; j++ {
				if stored[i][j] != stored[j][i] || stored[i][j] && dense[i][j] != dense[j][i] {
					want = false
					break
				}
			}
		}
		csr, err := NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		if got := csr.IsSymmetric(); got != want {
			t.Fatalf("%dx%d: IsSymmetric %v, dense transpose says %v", rows, cols, got, want)
		}
		sym, err := NewSymCSR(m)
		if (err == nil) != want {
			t.Fatalf("%dx%d: NewSymCSR err %v, dense transpose says symmetric=%v", rows, cols, err, want)
		}
		if err != nil {
			return
		}
		// The upper triangle mirrors back to the matrix: upper entries bit
		// for bit, lower ones equal to what was stored there.
		gotStored, got := denseOf(sym.ToCOO())
		for i := range got {
			for j := range got[i] {
				same := math.Float64bits(got[i][j]) == math.Float64bits(dense[i][j])
				if j < i {
					same = got[i][j] == dense[i][j]
				}
				if gotStored[i][j] != stored[i][j] || stored[i][j] && !same {
					t.Fatalf("(%d,%d): SymCSR mirrors stored=%v %v, matrix stored=%v %v",
						i, j, gotStored[i][j], got[i][j], stored[i][j], dense[i][j])
				}
			}
		}
		if sym.NNZ() != csr.NNZ() {
			t.Fatalf("SymCSR logical nnz %d, CSR %d", sym.NNZ(), csr.NNZ())
		}
	})
}

// denseOf is the dense reference of a COO matrix: which positions hold an
// entry, and each position's duplicates summed in insertion order from
// the first one, as NewCSR sums them.
func denseOf(m *COO) (stored [][]bool, val [][]float64) {
	stored, val = make([][]bool, m.R), make([][]float64, m.R)
	for i := range val {
		stored[i], val[i] = make([]bool, m.C), make([]float64, m.C)
	}
	for k, v := range m.Val {
		i, j := m.RowIdx[k], m.ColIdx[k]
		if stored[i][j] {
			val[i][j] += v
		} else {
			stored[i][j], val[i][j] = true, v
		}
	}
	return stored, val
}
