package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// BenchmarkCSRMultiRHS times one fused sweep over the Cantilever twin the
// benchmark harness serves (scale 0.5: 31k rows, ~2M nonzeros) through both
// public doors of the CSR multi-RHS body — MultiVec (CSR32 only, what
// Operator.Multi and lib-sweep's cant.fused4 cell run) and NewWide (either
// index width, what the server streams). Widths 1, 2, 4 and 8 have unrolled
// bodies; 5 takes the generic one. The two doors share one loop nest, so
// their ns/op must agree at every width; a gap means they have drifted.
func BenchmarkCSRMultiRHS(b *testing.B) {
	coo, err := gen.GenerateByName("FEM/Cantilever", 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	csr32, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		b.Fatal(err)
	}
	csr16, err := matrix.NewCSR[uint16](coo)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, width := range []int{1, 2, 4, 8, 5} {
		x := make([]float64, csr32.C*width)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, csr32.R*width)
		run := func(name string, sweep func(y, x []float64) error) {
			b.Run(fmt.Sprintf("%s/width=%d", name, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := sweep(y, x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		mv, err := NewMultiVec(csr32, width)
		if err != nil {
			b.Fatal(err)
		}
		run("MultiVec/csr32", mv.MulAdd)
		for _, enc := range []matrix.Format{csr32, csr16} {
			w, err := NewWide(enc, width)
			if err != nil {
				b.Fatal(err)
			}
			run("Wide/"+enc.FormatName(), w.MulAddBlock)
		}
	}
}
