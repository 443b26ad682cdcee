// Package kernel provides the executable SpMV kernels of the SC'07 study.
//
// The paper's optimization taxonomy (Table 2) has three classes. This
// package natively implements the first and third — code optimizations
// (loop structure, branch behaviour, register-tile unrolling that stands in
// for the Perl code generator's SIMDized output) and parallelization
// (row-partitioned threading with one goroutine per simulated core) — over
// the data structures of internal/matrix (the second class). Optimizations
// that cannot be expressed in portable Go (SIMD intrinsics, software
// prefetch, DMA) are accounted for by the platform model in internal/sim.
//
// Every kernel computes y ← y + A·x and is bit-for-bit deterministic.
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

// engine is the internal compute interface. run operates on padded vectors:
// len(ypad) >= rPad() and len(xpad) >= cPad(), where the pad regions are
// zero on entry for x and ignored on exit for y. Padding lets register-
// blocked kernels stay fully unrolled with no edge-case branches, the same
// trick the paper's generated kernels use by rounding the vectors up to the
// tile size. (BCSR pads x only: its bodies hand a short last tile row to a
// generic loop.)
type engine interface {
	run(ypad, xpad []float64)
	rPad() int
	cPad() int
}

// serial wraps an engine into a Kernel, managing pad buffers.
type serial struct {
	eng  engine
	fm   matrix.Format
	name string
	ypad []float64 // nil when rPad == rows
	xpad []float64 // nil when cPad == cols
}

func newSerial(eng engine, fm matrix.Format, name string) *serial {
	r, c := fm.Dims()
	s := &serial{eng: eng, fm: fm, name: name}
	if eng.rPad() > r {
		s.ypad = make([]float64, eng.rPad())
	}
	if eng.cPad() > c {
		s.xpad = make([]float64, eng.cPad())
	}
	return s
}

// MulAdd implements Kernel.
func (s *serial) MulAdd(y, x []float64) error {
	r, c := s.fm.Dims()
	if len(y) != r || len(x) != c {
		return fmt.Errorf("%w: matrix %dx%d with len(y)=%d len(x)=%d",
			matrix.ErrShape, r, c, len(y), len(x))
	}
	xp := x
	if s.xpad != nil {
		copy(s.xpad, x)
		xp = s.xpad
	}
	yp := y
	if s.ypad != nil {
		copy(s.ypad, y)
		yp = s.ypad
	}
	s.eng.run(yp, xp)
	if s.ypad != nil {
		copy(y, s.ypad[:r])
	}
	return nil
}

// Format implements Kernel.
func (s *serial) Format() matrix.Format { return s.fm }

// Name implements Kernel.
func (s *serial) Name() string { return s.name }

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

// Compile builds the best available kernel for an encoded matrix. CSR
// formats get the SingleLoop variant (use CompileCSR for explicit variant
// control); blocked and composite formats get their unrolled kernels.
func Compile(fm matrix.Format) (Kernel, error) {
	switch m := fm.(type) {
	case *matrix.COO:
		return newSerial(&cooEngine{m}, m, "coo"), nil
	case *matrix.CSR16:
		return compileCSR(m, SingleLoop), nil
	case *matrix.CSR32:
		return compileCSR(m, SingleLoop), nil
	case *matrix.BCSR[uint16]:
		return compileBCSR(m)
	case *matrix.BCSR[uint32]:
		return compileBCSR(m)
	case *matrix.BCOO[uint16]:
		return compileBCOO(m)
	case *matrix.BCOO[uint32]:
		return compileBCOO(m)
	case *matrix.CacheBlocked:
		return compileCacheBlocked(m)
	case *matrix.SymCSR:
		return NewSymSweep(m, 1)
	default:
		return nil, fmt.Errorf("kernel: no kernel for format %T", fm)
	}
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

// cooEngine is the reference triplet engine (used for testing and as the
// encoding of last resort inside cache blocks).
type cooEngine struct{ m *matrix.COO }

func (e *cooEngine) run(y, x []float64) {
	m := e.m
	for k := range m.Val {
		y[m.RowIdx[k]] += m.Val[k] * x[m.ColIdx[k]]
	}
}

func (e *cooEngine) rPad() int { return e.m.R }
func (e *cooEngine) cPad() int { return e.m.C }
