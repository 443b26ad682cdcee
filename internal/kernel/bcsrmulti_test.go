package kernel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// padCols copies an interleaved width-nv x of cols elements into a zeroed
// block of cp elements: the whole tile columns a BCSR body reads.
func padCols(x []float64, cols, cp, nv int) []float64 {
	out := make([]float64, cp*nv)
	copy(out, x[:cols*nv])
	return out
}

// bcsrSameBits sweeps block rows [lo, hi) of b, register-blocked from m, at
// width nv — with whichever bodies this CPU runs and with the Go bodies —
// and compares each against csrMultiRows over the same rows of m, the
// oracle. It reports the first differing slot (-1 if none) and the body.
func bcsrSameBits[I matrix.Index](m *matrix.CSR32, b *matrix.BCSR[I], nv int, y, x []float64, lo, hi int) (string, int, float64, float64) {
	want := slices.Clone(y)
	csrMultiRows(m, nv, want, x, lo*b.Shape.R, min(hi*b.Shape.R, m.R))
	xp := padCols(x, m.C, bcsrColsPadded(b), nv)
	for _, body := range []string{"default", "go"} {
		got := slices.Clone(y)
		run := func() { bcsrMultiRows(b, nv, got, xp, lo, hi) }
		if body == "go" {
			goBody(run)
		} else {
			run()
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return body, i, got[i], want[i]
			}
		}
	}
	return "", -1, 0, 0
}

// FuzzBCSRMultiRows holds every BCSR body to csrMultiRows on the same
// matrix bit for bit: all nine tile shapes, both index widths, widths
// 1-17, random block-row sub-ranges, the tile body and the Go bodies.
// Fill, ragged edges and empty tile rows come with the random structure.
func FuzzBCSRMultiRows(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(9), uint8(8), uint8(0), uint8(255), uint8(8))
	f.Add(int64(2), uint8(40), uint8(70), uint8(7), uint8(3), uint8(20), uint8(4))
	f.Add(int64(3), uint8(1), uint8(1), uint8(2), uint8(0), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rows8, cols8, width8, lo8, span8, shape8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, nv := 1+int(rows8)%64, 1+int(cols8), 1+int(width8)%17
		shape := matrix.BlockShapes[int(shape8)%len(matrix.BlockShapes)]
		m := fuzzCSR[uint32](rng, rows, cols)
		b32, err := matrix.NewBCSR[uint32](m, shape)
		if err != nil {
			t.Fatal(err)
		}
		b16, err := matrix.NewBCSR[uint16](m, shape)
		if err != nil {
			t.Fatal(err)
		}
		lo := int(lo8) % (b32.BlockRows + 1)
		hi := lo + int(span8)%(b32.BlockRows-lo+1)
		x, y := fuzzVector(rng, cols*nv), fuzzVector(rng, rows*nv)
		if body, i, g, w := bcsrSameBits(m, b32, nv, y, x, lo, hi); i >= 0 {
			t.Fatalf("bcsr%v/32 %s body, width %d, block rows [%d,%d): y[%d] %v (%#x), CSR %v (%#x)",
				shape, body, nv, lo, hi, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if body, i, g, w := bcsrSameBits(m, b16, nv, y, x, lo, hi); i >= 0 {
			t.Fatalf("bcsr%v/16 %s body, width %d, block rows [%d,%d): y[%d] %v (%#x), CSR %v (%#x)",
				shape, body, nv, lo, hi, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	})
}

// TestBCSRMultiRowsCorruptIndex checks that an index outside the matrix
// panics instead of being dereferenced, on whichever bodies this CPU runs
// and on the Go bodies, at width 1 and at unrolled and generic widths.
func TestBCSRMultiRowsCorruptIndex(t *testing.T) {
	dense := matrix.NewCOO(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			_ = dense.Append(i, j, float64(i*8+j+1))
		}
	}
	csr, err := matrix.NewCSR[uint32](dense)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]func(m *matrix.BCSR[uint32]){
		"BCol==bcols":           func(m *matrix.BCSR[uint32]) { m.BCol[1] = uint32(bcsrColsPadded(m) / m.Shape.C) },
		"decreasing RowPtr":     func(m *matrix.BCSR[uint32]) { m.RowPtr[1] = m.RowPtr[2] + 1 },
		"RowPtr past len(BCol)": func(m *matrix.BCSR[uint32]) { m.RowPtr[m.BlockRows] = int64(len(m.BCol)) + 1 },
	}
	for name, spoil := range corrupt {
		for _, shape := range []matrix.BlockShape{{R: 1, C: 2}, {R: 2, C: 2}, {R: 4, C: 1}, {R: 4, C: 4}} {
			for _, nv := range []int{1, 2, 5, 8} {
				for _, body := range []string{"default", "go"} {
					m, err := matrix.NewBCSR[uint32](csr, shape)
					if err != nil {
						t.Fatal(err)
					}
					spoil(m)
					x, y := make([]float64, bcsrColsPadded(m)*nv), make([]float64, m.R*nv)
					run := func() { bcsrMultiRows(m, nv, y, x, 0, m.BlockRows) }
					if body == "go" {
						run = func() { goBody(func() { bcsrMultiRows(m, nv, y, x, 0, m.BlockRows) }) }
					}
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s, shape %v, width %d, %s body: no panic", name, shape, nv, body)
							}
						}()
						run()
					}()
				}
			}
		}
	}
}
