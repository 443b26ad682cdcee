package kernel

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// goBody runs f with csrMultiRows held to its Go bodies.
func goBody(f func()) {
	saved := vectorBody
	vectorBody = false
	defer func() { vectorBody = saved }()
	f()
}

// fuzzValue draws from the values that stress rounding: ±0, subnormals,
// magnitudes whose products overflow to ±Inf (and whose sums then reach
// NaN), and ordinary normals.
func fuzzValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		return sign * 1e300 * (1 + rng.Float64())
	default:
		return rng.NormFloat64()
	}
}

// fuzzCSR builds a CSR matrix straight from its arrays: each row holds an
// ascending set of distinct columns, and about a third of the rows are
// empty or hold one entry.
func fuzzCSR[I matrix.Index](rng *rand.Rand, rows, cols int) *matrix.CSR[I] {
	m := &matrix.CSR[I]{R: rows, C: cols, RowPtr: make([]int64, rows+1)}
	for i := 0; i < rows; i++ {
		n := rng.Intn(cols + 1)
		if rng.Intn(3) == 0 {
			n = rng.Intn(2)
		}
		cs := rng.Perm(cols)[:n]
		slices.Sort(cs)
		for _, c := range cs {
			m.Col = append(m.Col, I(c))
			m.Val = append(m.Val, fuzzValue(rng))
		}
		m.RowPtr[i+1] = int64(len(m.Val))
	}
	return m
}

func fuzzVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = fuzzValue(rng)
	}
	return v
}

// sameBits sweeps rows [lo, hi) of m at width nv with the vector body and
// with the Go bodies, each from the same y, and reports the first slot
// whose bits differ (-1 if none).
func sameBits[I matrix.Index](m *matrix.CSR[I], nv int, y, x []float64, lo, hi int) (int, float64, float64) {
	yv, yg := slices.Clone(y), slices.Clone(y)
	csrMultiRows(m, nv, yv, x, lo, hi)
	goBody(func() { csrMultiRows(m, nv, yg, x, lo, hi) })
	for i := range yv {
		if math.Float64bits(yv[i]) != math.Float64bits(yg[i]) {
			return i, yv[i], yg[i]
		}
	}
	return -1, 0, 0
}

// FuzzCSRMultiRows holds the vector body to the Go bodies bit for bit, at
// both index widths, over random row sub-ranges and widths 1-17.
func FuzzCSRMultiRows(f *testing.F) {
	if !vectorBody {
		f.Skip("no vector body on this CPU")
	}
	f.Add(int64(1), uint8(12), uint8(9), uint8(8), uint8(0), uint8(255))
	f.Add(int64(2), uint8(40), uint8(70), uint8(7), uint8(3), uint8(20))
	f.Add(int64(3), uint8(1), uint8(1), uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, width8, lo8, span8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, nv := 1+int(rows8)%64, 1+int(cols8), 1+int(width8)%17
		lo := int(lo8) % (rows + 1)
		hi := lo + int(span8)%(rows-lo+1)
		m32 := fuzzCSR[uint32](rng, rows, cols)
		m16 := &matrix.CSR16{R: rows, C: cols, RowPtr: m32.RowPtr, Val: m32.Val, Col: make([]uint16, len(m32.Col))}
		for i, c := range m32.Col {
			m16.Col[i] = uint16(c)
		}
		x, y := fuzzVector(rng, cols*nv), fuzzVector(rng, rows*nv)
		if i, v, g := sameBits(m32, nv, y, x, lo, hi); i >= 0 {
			t.Fatalf("csr32 width %d rows [%d,%d): y[%d] vector %v (%#x), Go %v (%#x)",
				nv, lo, hi, i, v, math.Float64bits(v), g, math.Float64bits(g))
		}
		if i, v, g := sameBits(m16, nv, y, x, lo, hi); i >= 0 {
			t.Fatalf("csr16 width %d rows [%d,%d): y[%d] vector %v (%#x), Go %v (%#x)",
				nv, lo, hi, i, v, math.Float64bits(v), g, math.Float64bits(g))
		}
	})
}

// TestCSRMultiRowsCorruptIndex checks that an index outside the matrix
// panics instead of being dereferenced, on whichever bodies this CPU runs
// and on the Go bodies, at unrolled and generic widths.
func TestCSRMultiRowsCorruptIndex(t *testing.T) {
	corrupt := map[string]func(m *matrix.CSR32){
		"col==C":               func(m *matrix.CSR32) { m.Col[3] = uint32(m.C) },
		"decreasing RowPtr":    func(m *matrix.CSR32) { m.RowPtr[2] = m.RowPtr[3] + 1 },
		"RowPtr past len(Val)": func(m *matrix.CSR32) { m.RowPtr[m.R] = int64(len(m.Val)) + 1 },
	}
	for name, spoil := range corrupt {
		for _, nv := range []int{1, 2, 5, 8} {
			for _, body := range []string{"default", "go"} {
				m := &matrix.CSR32{R: 4, C: 3,
					RowPtr: []int64{0, 2, 4, 6, 8},
					Col:    []uint32{0, 2, 0, 1, 1, 2, 0, 2},
					Val:    []float64{1, 2, 3, 4, 5, 6, 7, 8}}
				spoil(m)
				x, y := make([]float64, m.C*nv), make([]float64, m.R*nv)
				run := func() { csrMultiRows(m, nv, y, x, 0, m.R) }
				if body == "go" {
					run = func() { goBody(func() { csrMultiRows(m, nv, y, x, 0, m.R) }) }
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s, width %d, %s body: no panic", name, nv, body)
						}
					}()
					run()
				}()
			}
		}
	}
}

// TestVectorBodyHasNoFMA fences the assembly, which spmv-vet's detpure
// cannot see: a fused multiply-add rounds once where the Go bodies round
// twice, so its bits would differ.
func TestVectorBodyHasNoFMA(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found (%v)", err)
	}
	fma := regexp.MustCompile(`\bVF(N)?M(ADD|SUB)\w*`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range fma.FindAllIndex(src, -1) {
			t.Errorf("%s: %s at byte %d", f, src[loc[0]:loc[1]], loc[0])
		}
	}
}
