package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/matrix/delta"
)

// TestGenericWidthBodiesAllocateNothing holds the generic-width bodies of
// the symmetric scan, csrMultiRows' Go nest and OverlayRows to their stack
// accumulator: at widths with no unrolled body — 3, and 12, which takes
// two lane groups — a sweep allocates nothing, and every lane returns the
// width-1 sweep's bits on its vector.
func TestGenericWidthBodiesAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	csr, err := matrix.NewCSR[uint32](randomSymCOO(rng, 80, 600))
	if err != nil {
		t.Fatal(err)
	}
	sym, err := matrix.SymFromCSR(csr)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSymSweep(sym, 1)
	if err != nil {
		t.Fatal(err)
	}
	spill := make([]float64, sw.spillLen*12)
	var dirty []delta.Row
	for i := 0; i < csr.R; i += 3 {
		row := delta.Row{Index: int32(i)}
		for k := csr.RowPtr[i]; k < csr.RowPtr[i+1]; k++ {
			row.Col = append(row.Col, int32(csr.Col[k]))
			row.Val = append(row.Val, csr.Val[k]*1.5)
		}
		dirty = append(dirty, row)
	}
	bodies := []struct {
		name  string
		sweep func(y, x []float64, nv int)
	}{
		{"scanSegment", func(y, x []float64, nv int) {
			sp := spill[:sw.spillLen*nv]
			clear(sp)
			for _, sg := range sw.segs {
				sw.scanSegment(sg, y, x, sp, nv)
			}
			sw.reduceRows(y, sp, nv, 0, sym.N)
		}},
		{"csrMultiRows", func(y, x []float64, nv int) { csrMultiRows(csr, nv, y, x, 0, csr.R) }},
		{"OverlayRows", func(y, x []float64, nv int) {
			if err := OverlayRows(y, x, nv, dirty); err != nil {
				t.Fatal(err)
			}
		}},
	}
	goBody(func() {
		for _, b := range bodies {
			for _, nv := range []int{3, 12} {
				x := randVec(rng, csr.C*nv)
				y := make([]float64, csr.R*nv)
				if allocs := testing.AllocsPerRun(20, func() { b.sweep(y, x, nv) }); allocs != 0 {
					t.Errorf("%s width %d: %.1f allocations per sweep, want 0", b.name, nv, allocs)
				}
				clear(y)
				b.sweep(y, x, nv)
				for v := 0; v < nv; v++ {
					xv, yv := make([]float64, csr.C), make([]float64, csr.R)
					for j := range xv {
						xv[j] = x[j*nv+v]
					}
					b.sweep(yv, xv, 1)
					for i := range yv {
						if math.Float64bits(y[i*nv+v]) != math.Float64bits(yv[i]) {
							t.Fatalf("%s width %d lane %d row %d: %v, width 1 gives %v", b.name, nv, v, i, y[i*nv+v], yv[i])
						}
					}
				}
			}
		}
	})
}
