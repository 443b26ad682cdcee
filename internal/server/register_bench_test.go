package server

import (
	"runtime"
	"strconv"
	"testing"

	spmv "repro"
)

// BenchmarkRegister times one registration under the default
// configuration — canonicalization, the storage-family decision, the
// compile and the snapshot's traffic model — on the Cantilever twin the
// serve-fused and mutate-read workloads register (square, not symmetric:
// general BCSR 4×4), a symmetrized Cantilever twin and Poisson-150 (both
// served from symmetric storage) and a symmetric block-diagonal matrix of
// dense 4×4 blocks (served general: BCSR 4×4 with 16-bit indices is
// smaller than its upper triangle, so the compile path weighs both
// families and encodes the general one). Each registration is deleted
// again, so the server holds one matrix at a time, and a collection runs
// untimed before each registration, as the benchmark harness runs one
// before each set-up, so no registration reuses the canonical CSR an
// earlier one left in the matrix's cache.
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
		sym  bool // served from symmetric storage
	}{
		{"cantilever-0.5", cant, false},
		{"cantilever-0.1-symmetrized", symCant, true},
		{"poisson-150", poissonMatrix(b, 150), true},
		{"block-diagonal-4x4", blockDiagonal(b, 40000), false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(DefaultConfig())
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				id := strconv.Itoa(i)
				info, err := s.Register(id, bc.name, bc.m)
				if err != nil {
					b.Fatal(err)
				}
				if info.Symmetric != bc.sym {
					b.Fatalf("served %s, symmetric %v; want symmetric %v", info.Kernel, info.Symmetric, bc.sym)
				}
				if _, err := s.DeleteMatrix(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// blockDiagonal returns the symmetric matrix of n dense 4×4 diagonal
// blocks, each 4 on its diagonal and 1 elsewhere.
func blockDiagonal(t testing.TB, n int) *spmv.Matrix {
	t.Helper()
	m := spmv.NewMatrix(4*n, 4*n)
	for b := 0; b < n; b++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				v := 1.0
				if i == j {
					v = 4
				}
				if err := m.Set(4*b+i, 4*b+j, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}
