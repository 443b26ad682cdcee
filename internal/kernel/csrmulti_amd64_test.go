package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestCSRMultiRowsVecChunks crosses the assembly's chunk boundaries, which
// the fuzz target's small matrices never reach.
func TestCSRMultiRowsVecChunks(t *testing.T) {
	if !vectorBody {
		t.Skip("no vector body on this CPU")
	}
	rng := rand.New(rand.NewSource(5))
	rows := 2*vecChunkRows + 3
	m := fuzzCSR[uint32](rng, rows, 6)
	for _, nv := range []int{2, 3, 8} {
		x, y := fuzzVector(rng, 6*nv), fuzzVector(rng, rows*nv)
		for _, r := range [][2]int{{0, rows}, {1, rows - 1}, {vecChunkRows - 1, vecChunkRows + 1}} {
			if i, v, g := sameBits(m, nv, y, x, r[0], r[1]); i >= 0 {
				t.Errorf("width %d rows %v: y[%d] vector %v, Go %v", nv, r, i, v, g)
			}
		}
	}
}

// TestBCSRMultiRowsVecChunks crosses the tile body's chunk boundaries, at
// one and at four rows per block row.
func TestBCSRMultiRowsVecChunks(t *testing.T) {
	if !vectorBody {
		t.Skip("no vector body on this CPU")
	}
	rng := rand.New(rand.NewSource(6))
	rows := 2*vecChunkRows + 7
	m := fuzzCSR[uint32](rng, rows, 9)
	for _, shape := range []matrix.BlockShape{{R: 1, C: 2}, {R: 4, C: 4}} {
		b, err := matrix.NewBCSR[uint32](m, shape)
		if err != nil {
			t.Fatal(err)
		}
		step := vecChunkRows / shape.R
		for _, nv := range []int{2, 3, 8} {
			x, y := fuzzVector(rng, 9*nv), fuzzVector(rng, rows*nv)
			for _, r := range [][2]int{{0, b.BlockRows}, {1, b.BlockRows - 1}, {step - 1, step + 1}} {
				if body, i, g, w := bcsrSameBits(m, b, nv, y, x, r[0], r[1]); i >= 0 {
					t.Errorf("shape %v width %d block rows %v: %s body y[%d] %v, CSR %v", shape, nv, r, body, i, g, w)
				}
			}
		}
	}
}
