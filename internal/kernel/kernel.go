// Package kernel provides the executable SpMV kernels of the SC'07 study.
//
// The paper's optimization taxonomy (Table 2) has three classes. This
// package natively implements the first and third — code optimizations
// (loop structure, branch behaviour, register-tile unrolling that stands in
// for the Perl code generator's SIMDized output) and parallelization
// (row-partitioned threading with one goroutine per simulated core) — over
// the data structures of internal/matrix (the second class). On amd64 the
// fused multi-RHS sweeps of CSR and BCSR also run AVX bodies written in
// assembly (csrmulti_amd64.s, bcsrmulti_amd64.s) with the Go bodies' bits.
// Software prefetch and DMA are accounted for by the platform model in
// internal/sim.
//
// Each encoding has one engine — one loop nest, run at any fused width —
// and the scalar Kernel of an encoding is its width-1 sweep, so MulAdd and
// lane v of every wide sweep return the same bits. Every kernel computes
// y ← y + A·x and is bit-for-bit deterministic.
package kernel

import (
	"fmt"

	"repro/internal/matrix"
)

// Kernel is a compiled SpMV routine bound to one encoded matrix.
type Kernel interface {
	// MulAdd computes y ← y + A·x. len(y) and len(x) must match Dims.
	MulAdd(y, x []float64) error
	// Format returns the underlying encoded matrix.
	Format() matrix.Format
	// Name identifies the kernel variant, e.g. "bcsr2x4/16".
	Name() string
}

// Variant selects among the CSR code-optimization levels of §4.1.
type Variant int

const (
	// Naive is the conventional nested-loop CSR kernel: the outer loop
	// iterates rows, the inner loop re-loads start/end pointers and writes
	// y[i] on every nonzero.
	Naive Variant = iota
	// SingleLoop streams Col/Val with a single loop variable and a register
	// accumulator per row, exploiting the fact that row i+1's data
	// immediately follows row i's.
	SingleLoop
	// Branchless is the segmented-scan-of-length-one formulation: one flat
	// loop over all nonzeros with row advancement folded into the stream,
	// minimizing per-row loop startup and mispredicted branches on short
	// rows. (The paper found no x86 benefit but wins on in-order cores;
	// that distinction is modeled in internal/sim.)
	Branchless
)

// String returns the variant's display name.
func (v Variant) String() string {
	switch v {
	case Naive:
		return "naive"
	case SingleLoop:
		return "singleloop"
	case Branchless:
		return "branchless"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Compile builds the kernel of an encoded matrix: the width-1 sweep of
// its encoding's engine (CSR formats get the SingleLoop variant; use
// CompileCSR for explicit variant control). Concurrent MulAdd calls are
// safe: pad scratch is pooled per call.
func Compile(fm matrix.Format) (Kernel, error) {
	switch m := fm.(type) {
	case *matrix.CSR16:
		return compileCSR(m, SingleLoop), nil
	case *matrix.CSR32:
		return compileCSR(m, SingleLoop), nil
	case *matrix.SymCSR:
		return NewSymSweep(m, 1)
	}
	k, err := compileWide(fm, 1)
	if err != nil {
		return nil, err
	}
	return k, nil
}

// CompileCSR builds a CSR kernel with an explicit code-optimization
// variant; it accepts *matrix.CSR16 or *matrix.CSR32.
func CompileCSR(fm matrix.Format, v Variant) (Kernel, error) {
	switch m := fm.(type) {
	case *matrix.CSR16:
		return compileCSR(m, v), nil
	case *matrix.CSR32:
		return compileCSR(m, v), nil
	default:
		return nil, fmt.Errorf("kernel: CompileCSR needs a CSR matrix, got %T", fm)
	}
}
