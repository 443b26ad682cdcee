package kernel

import (
	"math/rand"
	"testing"
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
