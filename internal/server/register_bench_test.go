package server

import (
	"strconv"
	"testing"

	spmv "repro"
)

// BenchmarkRegister times one registration under the default
// configuration — canonicalization, the storage-family decision, the
// compile and the snapshot's traffic model — on the Cantilever twin the
// serve-fused and mutate-read workloads register (square, not symmetric:
// general BCSR 4×4), a symmetrized Cantilever twin and Poisson-150 (both
// served from symmetric storage). Each registration is deleted again, so
// the server holds one matrix at a time.
func BenchmarkRegister(b *testing.B) {
	cant, err := spmv.GenerateSuite("FEM/Cantilever", 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	small, err := spmv.GenerateSuite("FEM/Cantilever", 0.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	symCant, err := spmv.Symmetrize(small)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		m    *spmv.Matrix
	}{
		{"cantilever-0.5", cant},
		{"cantilever-0.1-symmetrized", symCant},
		{"poisson-150", poissonMatrix(b, 150)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(DefaultConfig())
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := strconv.Itoa(i)
				if _, err := s.Register(id, bc.name, bc.m); err != nil {
					b.Fatal(err)
				}
				if _, err := s.DeleteMatrix(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
