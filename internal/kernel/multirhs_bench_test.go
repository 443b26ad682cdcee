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
// index width, what the server streams) — on each body: body=vec is the
// amd64 vector body (skipped where the CPU has none), body=go the Go
// bodies, unrolled at widths 1, 2, 4 and 8 and generic elsewhere. Width 1
// is the Go loop on both levels. The two doors share one loop nest, so
// their ns/op must agree at every width; a gap means they have drifted.
// Wide/bcsr4x4/16 is the register-blocked encoding the server streams for
// this matrix, through bcsrMultiRows: the unrolled 4×4 Go body at width 1,
// the tile body (vec) or the generic Go body (go) above it.
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
	bcsr, err := matrix.NewBCSR[uint16](csr32, matrix.BlockShape{R: 4, C: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		x := make([]float64, csr32.C*width)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, csr32.R*width)
		mv, err := NewMultiVec(csr32, width)
		if err != nil {
			b.Fatal(err)
		}
		names := []string{"MultiVec/csr32"}
		sweeps := []func(y, x []float64) error{mv.MulAdd}
		for _, enc := range []matrix.Format{csr32, csr16, bcsr} {
			w, err := NewWide(enc, width)
			if err != nil {
				b.Fatal(err)
			}
			name := enc.FormatName()
			if enc == bcsr {
				name = "bcsr4x4/16"
			}
			names = append(names, "Wide/"+name)
			sweeps = append(sweeps, w.MulAddBlock)
		}
		for _, body := range []string{"vec", "go"} {
			for d, sweep := range sweeps {
				b.Run(fmt.Sprintf("%s/width=%d/body=%s", names[d], width, body), func(b *testing.B) {
					run := func() {
						for i := 0; i < b.N; i++ {
							if err := sweep(y, x); err != nil {
								b.Fatal(err)
							}
						}
					}
					switch {
					case body == "go":
						goBody(run)
					case vectorBody:
						run()
					default:
						b.Skip("no vector body on this CPU")
					}
				})
			}
		}
	}
}
