package spmv

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/traffic"
)

// KeepsCSRCopy reports whether the operator holds a CSR32 for its CSR
// hooks, beside its encoding.
func KeepsCSRCopy(o *Operator) bool { return o.lazyCSR != nil }

// CachedCSR returns the canonical CSR32 the matrix's cache still reaches,
// or nil.
func CachedCSR(m *Matrix) *matrix.CSR32 {
	m.canon.mu.Lock()
	defer m.canon.mu.Unlock()
	return m.canon.csr.Value()
}

// EncodingCSR returns the operator's encoding where it is a CSR32, else
// nil.
func EncodingCSR(o *Operator) *matrix.CSR32 {
	csr, _ := o.k.Format().(*matrix.CSR32)
	return csr
}

// ViewCSR returns the canonical CSR32 a multi-RHS view streams, or nil.
func ViewCSR(mo *MultiOperator) *matrix.CSR32 { return mo.csr }

// TestParallelTrafficSumsParts: a parallel operator's Traffic is what its
// sweeps stream — the sum of its parts' encodings, whose matrix stream is
// the compiled footprint, with the whole matrix's source gather — and
// modeling it builds no CSR copy of the matrix. The copy is built only by
// a CSR hook: an operator keeping one measured 1.05–1.25x the peak RSS of
// the serving and library benchmark workloads (three of five past their
// 15 % bound), so Traffic must not be the call that keeps it.
func TestParallelTrafficSumsParts(t *testing.T) {
	m, err := GenerateSuite("FEM/Cantilever", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	op, err := CompileParallel(m, TuneOptions{RegisterBlock: true, MinBlockRows: 2, ReduceIndices: true}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := op.k.(*kernel.Parallel)
	if !ok || len(p.Parts()) != 3 {
		t.Fatalf("kernel %T, want a 3-part *kernel.Parallel", op.k)
	}
	var want traffic.Summary
	for _, part := range p.Parts() {
		s, err := traffic.Analyze(part.Enc, TrafficOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want.Add(s)
	}
	whole, err := traffic.Analyze(m.coo, TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want.SourceBytes = whole.SourceBytes

	got, err := op.Traffic(TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Traffic %+v, want the parts' sum %+v", got, want)
	}
	if got.MatrixBytes != op.FootprintBytes() || got.Flops != 2*op.NNZ() {
		t.Errorf("matrix stream %d B, flops %d; want the footprint %d B and %d flops",
			got.MatrixBytes, got.Flops, op.FootprintBytes(), 2*op.NNZ())
	}
	if op.lazyCSR != nil {
		t.Error("Traffic left a CSR copy of the matrix on the operator")
	}
}
