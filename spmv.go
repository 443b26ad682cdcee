// Package spmv is the public API of this repository: a multicore-optimized
// sparse matrix-vector multiplication (SpMV) library reproducing
// "Optimization of Sparse Matrix-Vector Multiplication on Emerging
// Multicore Platforms" (Williams, Oliker, Vuduc, Shalf, Yelick, Demmel —
// SC 2007).
//
// The library implements the paper's full optimization stack:
//
//   - storage formats: CSR, register-blocked BCSR, block-coordinate BCOO,
//     each with 16- or 32-bit indices, composed under cache/TLB blocking;
//   - the §4.2 heuristic auto-tuner: one pass over the nonzeros choosing
//     the (format, tile shape, index width) per cache block that minimizes
//     the matrix footprint;
//   - code-optimized kernels: single-loop CSR, branchless/segmented CSR,
//     fully unrolled register-tile kernels for all nine power-of-two
//     shapes;
//   - parallelization: row decomposition balanced by nonzeros with one
//     goroutine per partition (disjoint destination ranges — no locks).
//
// A typical use:
//
//	a := spmv.NewMatrix(n, n)
//	a.Set(i, j, v) // ... for each nonzero
//	op, err := spmv.Compile(a, spmv.DefaultTuneOptions())
//	y := op.Mul(x)
//
// The cross-platform performance study (the paper's evaluation on AMD X2,
// Intel Clovertown, Sun Niagara and STI Cell) is reproduced by the
// cmd/spmv-bench tool backed by the platform model in internal/perf. An online serving layer (internal/server, cmd/spmv-serve)
// applies the multiple-vectors optimization to concurrent traffic and
// scales across nodes with a shard coordinator. See DESIGN.md for the
// architecture and EXPERIMENTS.md for reproducing the evaluation.
package spmv

import (
	"fmt"
	"io"
	"sync"
	"weak"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/mmio"
	"repro/internal/partition"
	"repro/internal/traffic"
	"repro/internal/tune"
)

// Matrix is a sparse matrix under assembly, in coordinate form. Build it
// with NewMatrix/Set (or load it with ReadMatrixMarket), then Compile it
// into an Operator for repeated multiplication.
type Matrix struct {
	coo   *matrix.COO
	canon canonCache
}

// canonCache remembers a matrix's canonical CSR32 without keeping it
// alive: the CSR lives only while an operator holds it (a naive operator's
// encoding is that CSR, a Multi view keeps it), and every compile or CSR
// hook that asks meanwhile shares it instead of building another. Set only
// appends, so the entry count names the matrix state the CSR was built
// from.
type canonCache struct {
	mu  sync.Mutex
	csr weak.Pointer[matrix.CSR32]
	n   int // entries csr was built from
}

// get returns the canonical CSR32 of src, the matrix's first len(src.Val)
// entries: the cached one if it is still alive and was built from as many
// entries, else a fresh build, which it then caches. The lock is held over
// the build, so concurrent compiles of one matrix build it once.
func (c *canonCache) get(src *matrix.COO) (*matrix.CSR32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(src.Val)
	if csr := c.csr.Value(); csr != nil && c.n == n {
		return csr, nil
	}
	csr, err := matrix.NewCSR[uint32](src)
	if err != nil {
		return nil, err
	}
	c.csr, c.n = weak.Make(csr), n
	return csr, nil
}

// canonical returns the matrix's canonical CSR32 — entries sorted by
// (row, column), duplicates summed in arrival order — and the entries it
// stands for, their slices capped at their length so that a later Set
// (which only appends) never shows through. It is the one door every
// compile and symmetry check canonicalizes through.
func (m *Matrix) canonical() (*matrix.CSR32, *matrix.COO, error) {
	n := len(m.coo.Val)
	src := &matrix.COO{R: m.coo.R, C: m.coo.C, RowIdx: m.coo.RowIdx[:n:n],
		ColIdx: m.coo.ColIdx[:n:n], Val: m.coo.Val[:n:n]}
	csr, err := m.canon.get(src)
	return csr, src, err
}

// NewMatrix creates an empty rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{coo: matrix.NewCOO(rows, cols)}
}

// Set appends entry (i, j) = v. Duplicate entries are summed at compile
// time (MatrixMarket semantics). It returns an error if (i, j) is out of
// range.
func (m *Matrix) Set(i, j int, v float64) error { return m.coo.Append(i, j, v) }

// Dims returns (rows, cols).
func (m *Matrix) Dims() (rows, cols int) { return m.coo.Dims() }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int64 { return m.coo.NNZ() }

// Entries calls f for every stored entry in insertion order. Duplicates
// appear as stored (they are summed only at compile time).
func (m *Matrix) Entries(f func(i, j int, v float64)) {
	for k := range m.coo.Val {
		f(int(m.coo.RowIdx[k]), int(m.coo.ColIdx[k]), m.coo.Val[k])
	}
}

// Stats returns structural statistics (dimensions, nnz/row, empty rows,
// bandwidth, symmetry) of the matrix.
func (m *Matrix) Stats() MatrixStats { return m.coo.ComputeStats() }

// IsSymmetric reports whether the matrix equals its transpose exactly
// (numerical symmetry, not just the structural symmetry Stats reports).
// It is the admission test for symmetry-requiring consumers — Conjugate
// Gradient sessions, CompileSymmetric — independent of which storage
// family ends up serving the matrix. It canonicalizes the entries as
// compile does and runs the one symmetry check, matrix.CSR.IsSymmetric.
func (m *Matrix) IsSymmetric() bool {
	csr, _, err := m.canonical()
	return err == nil && csr.IsSymmetric()
}

// MatrixStats re-exports the structural summary used by Table 3.
type MatrixStats = matrix.Stats

// Reordering is a symmetric row/column permutation produced by ReorderRCM.
// Multiply with the reordered operator by permuting inputs and
// un-permuting outputs:
//
//	y = ro.Unpermute(opReordered.Mul(ro.Permute(x)))
type Reordering struct {
	p *matrix.Permutation
}

// Permute maps a vector into the reordered index space.
func (r *Reordering) Permute(v []float64) []float64 { return r.p.PermuteVec(v) }

// Unpermute maps a vector back to the original index space.
func (r *Reordering) Unpermute(v []float64) []float64 { return r.p.UnpermuteVec(v) }

// ReorderRCM applies reverse Cuthill-McKee, the locality-enhancing
// reordering of §2.1's SPARSITY/OSKI technique list, to a square matrix:
// it returns B = P·A·Pᵀ with (heuristically) minimized bandwidth — which
// concentrates source-vector accesses and improves cache blocking — plus
// the permutation needed to translate vectors.
func ReorderRCM(m *Matrix) (*Matrix, *Reordering, error) {
	p, ok := matrix.RCM(m.coo)
	if !ok {
		return nil, nil, fmt.Errorf("spmv: RCM needs a square matrix")
	}
	return &Matrix{coo: p.ApplySymmetric(m.coo)}, &Reordering{p: p}, nil
}

// ReadMatrixMarket loads a matrix from MatrixMarket format (coordinate
// real/pattern general/symmetric, or array real general).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	coo, err := mmio.Read(r)
	if err != nil {
		return nil, err
	}
	return &Matrix{coo: coo}, nil
}

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate format.
func (m *Matrix) WriteMatrixMarket(w io.Writer) error {
	return mmio.Write(w, m.coo)
}

// GenerateSuite builds a synthetic structural twin of one of the paper's
// 14 evaluation matrices (Table 3) at the given scale. Valid names include
// "Dense", "Protein", "FEM/Cantilever", "QCD", "Economics", "webbase",
// "LP", ... — see SuiteNames.
func GenerateSuite(name string, scale float64, seed int64) (*Matrix, error) {
	coo, err := gen.GenerateByName(name, scale, seed)
	if err != nil {
		return nil, err
	}
	return &Matrix{coo: coo}, nil
}

// SuiteNames lists the paper-order names accepted by GenerateSuite.
func SuiteNames() []string {
	names := make([]string, len(gen.Suite))
	for i, s := range gen.Suite {
		names[i] = s.Name
	}
	return names
}

// TuneOptions configures the auto-tuner; see internal/tune for the meaning
// of each field. DefaultTuneOptions enables the full §4.2 heuristic.
type TuneOptions = tune.Options

// DefaultTuneOptions enables register blocking, BCOO, 16-bit indices, and
// cache/TLB blocking with a 1MB budget.
func DefaultTuneOptions() TuneOptions { return tune.DefaultOptions() }

// NaiveOptions disables every data-structure optimization: the operator
// runs plain CSR with 32-bit indices (the paper's baseline).
func NaiveOptions() TuneOptions { return TuneOptions{} }

// Decision re-exports the tuner's per-cache-block decision record.
type Decision = tune.Decision

// Operator is a compiled, immutable SpMV operator: an encoded matrix bound
// to its optimized kernel.
type Operator struct {
	k          kernel.Kernel
	rows, cols int
	nnz        int64
	decisions  []Decision
	footprint  int64
	baseline   int64
	threads    int

	// src is the source matrix's entries as compiled: its slices are
	// capped at their length, so a later Matrix.Set (which only appends)
	// never shows through. The CSR hooks (Multi, RowPartition) take CSR
	// storage from canon on first use unless the encoding is that CSR, and
	// a parallel operator's Traffic models its whole-matrix source gather
	// from src. Both are nil for operators without a coordinate source
	// (CompileSymmetric).
	src   *matrix.COO
	canon *canonCache // the source matrix's canonical-CSR cache

	multiMu sync.Mutex
	lazyCSR *matrix.CSR32              // taken on first hook use, then shared
	views   map[viewKey]*MultiOperator // multi-RHS views, by width and stream
}

// viewKey names a multi-RHS view: its width, and whether it streams the
// canonical CSR32 (Multi) or the compiled encoding (WideMulti).
type viewKey struct {
	width int
	csr   bool
}

// csrLocked returns the canonical CSR32 backing the CSR hooks: the
// compiled encoding where it is that CSR (a serial whole-matrix CSR32 is
// the tuner's input itself), else, on first use, the source matrix's
// cached one for the entries compiled (another operator's naive encoding,
// say) or one built from src, and kept. multiMu must be held. Only a hook
// takes it: keeping one on every operator raised the benchmark workloads'
// peak RSS 1.05–1.25x.
func (o *Operator) csrLocked() (*matrix.CSR32, error) {
	if csr, ok := o.k.Format().(*matrix.CSR32); ok {
		return csr, nil
	}
	if o.lazyCSR != nil {
		return o.lazyCSR, nil
	}
	if o.src == nil {
		return nil, fmt.Errorf("spmv: operator has no CSR backing")
	}
	csr, err := o.canon.get(o.src)
	if err != nil {
		return nil, err
	}
	o.lazyCSR = csr
	return csr, nil
}

// Compile tunes and compiles the matrix into a serial operator: it is
// CompileParallel(m, opt, 1, 1).
func Compile(m *Matrix, opt TuneOptions) (*Operator, error) {
	return compile(m, opt, 1, 1)
}

// CompileParallel tunes each thread's row block independently (balanced by
// nonzeros) and compiles a parallel operator with one goroutine per block.
// numaNodes tags blocks for NUMA placement accounting (use 1 if unsure).
// With opt.TrySymmetric, a square, numerically symmetric matrix whose
// upper-triangle footprint is strictly smaller than the tuned plan's is
// compiled as CompileSymmetricParallel compiles it instead, at the same
// thread count.
func CompileParallel(m *Matrix, opt TuneOptions, threads, numaNodes int) (*Operator, error) {
	if threads < 1 {
		return nil, fmt.Errorf("spmv: threads must be >= 1, got %d", threads)
	}
	return compile(m, opt, threads, numaNodes)
}

// compile canonicalizes the matrix once, or shares the CSR another compile
// of the same entries built (m.canonical): the general plan and, under
// opt.TrySymmetric, the upper-triangle store (matrix.SymFromCSR, the one
// symmetry check) are built from that CSR. It is the §4.2 footprint rule
// extended by one family — general wins ties. The plan is made once and
// encoded only when it wins, so only the winning family is ever built.
func compile(m *Matrix, opt TuneOptions, threads, numaNodes int) (*Operator, error) {
	csr, src, err := m.canonical()
	if err != nil {
		return nil, err
	}
	plan, err := tune.NewPlan(csr, opt, threads)
	if err != nil {
		return nil, err
	}
	if opt.TrySymmetric {
		// nil unless square and numerically symmetric
		if sym, _ := matrix.SymFromCSR(csr); sym != nil && sym.FootprintBytes() < plan.TotalFootprint {
			return symmetricOperator(sym, csr.FootprintBytes(), threads)
		}
	}
	parts, err := plan.Encode(numaNodes)
	if err != nil {
		return nil, err
	}
	op := &Operator{
		rows: csr.R, cols: csr.C, nnz: csr.NNZ(),
		baseline:  csr.FootprintBytes(),
		footprint: plan.TotalFootprint,
		decisions: plan.Decisions,
		threads:   threads,
		src:       src,
		canon:     &m.canon,
	}
	if threads == 1 {
		op.k, err = kernel.Compile(parts[0].Enc)
	} else {
		op.k, err = kernel.NewParallel(csr.R, csr.C, parts)
	}
	if err != nil {
		return nil, err
	}
	return op, nil
}

// MulAdd computes y ← y + A·x: the width-1 sweep of the encoding's one
// loop nest, so for every encoding family its bits are those of lane v of
// every WideMulti(k) view. A register-blocked encoding also multiplies its
// explicit zero fill, so a non-finite x[j] (0·Inf = NaN) can turn every
// row of a tile row that touches column j into NaN, not only the rows
// holding a nonzero there.
func (o *Operator) MulAdd(y, x []float64) error { return o.k.MulAdd(y, x) }

// Mul returns A·x as a fresh vector.
func (o *Operator) Mul(x []float64) ([]float64, error) {
	y := make([]float64, o.rows)
	if err := o.k.MulAdd(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// Dims returns (rows, cols).
func (o *Operator) Dims() (rows, cols int) { return o.rows, o.cols }

// NNZ returns the number of logical nonzeros.
func (o *Operator) NNZ() int64 { return o.nnz }

// Threads returns the parallel width of the compiled kernel.
func (o *Operator) Threads() int { return o.threads }

// KernelName identifies the compiled kernel variant.
func (o *Operator) KernelName() string { return o.k.Name() }

// FootprintBytes returns the tuned data-structure size.
func (o *Operator) FootprintBytes() int64 { return o.footprint }

// BaselineBytes returns the plain CSR32 footprint for comparison.
func (o *Operator) BaselineBytes() int64 { return o.baseline }

// Savings returns the footprint reduction versus CSR32, in [0, 1).
func (o *Operator) Savings() float64 {
	if o.baseline == 0 {
		return 0
	}
	s := 1 - float64(o.footprint)/float64(o.baseline)
	if s < 0 {
		return 0
	}
	return s
}

// Decisions returns the tuner's per-cache-block decision log.
func (o *Operator) Decisions() []Decision { return o.decisions }

// Multi returns a width-k multi-RHS view of the operator: one call
// multiplies k vectors while streaming the matrix once (§2.1's
// multiple-vectors optimization). The view is kernel.NewWide over the
// canonical CSR32 (see csrLocked), so it takes MulAddRows; a symmetric
// operator's is its parallel symmetric sweep, keeping the halved matrix
// stream. Views are cached per width — one view where WideMulti streams
// the same storage — and, like Multi, safe for concurrent use.
func (o *Operator) Multi(width int) (*MultiOperator, error) { return o.view(width, true) }

// WideMulti returns a width-k multi-RHS view that streams the operator's
// tuned encoding itself — register blocks, cache blocks, reduced indices
// and all — instead of the plain CSR Multi's views stream. It combines the
// paper's two biggest bandwidth reductions (data-structure compression,
// §4.2, and multiple vectors, §2.1) in one sweep: the fused matrix stream
// shrinks by the tuner's footprint saving.
//
// Bits: a wide view runs the loop nest MulAdd runs, so for every encoding
// family lane v returns MulAdd's bits on vector v. Over plain CSR (any
// index width, serial or row-partitioned) that is the loop nest Multi's
// views run, and BCSR sums each row in the same ascending column order, so
// both return Multi's bits — the property that lets a serving layer move
// between these encodings without changing responses. Cache-blocked and
// BCOO encodings reassociate row sums and match the reference only to
// rounding. For finite x only: a BCSR view
// multiplies its zero fill, so a non-finite x can spread NaN across a tile
// row (the serving layer refuses such vectors). Views are cached per width
// and safe for concurrent use.
func (o *Operator) WideMulti(width int) (*MultiOperator, error) { return o.view(width, false) }

// view returns the cached width-k view over the canonical CSR32 (csr) or
// the compiled encoding, building it on first use. Where the two are one
// stream — a symmetric operator, or an encoding that is the canonical
// CSR32 — both doors share one key, so one view.
func (o *Operator) view(width int, csr bool) (*MultiOperator, error) {
	if width < 1 {
		return nil, fmt.Errorf("spmv: need at least 1 vector, got %d", width)
	}
	o.multiMu.Lock()
	defer o.multiMu.Unlock()
	_, isCSR := o.k.Format().(*matrix.CSR32)
	key := viewKey{width, csr && !o.Symmetric() || isCSR}
	if mo, ok := o.views[key]; ok {
		return mo, nil
	}
	mo := &MultiOperator{rows: o.rows, cols: o.cols}
	var err error
	if key.csr {
		if mo.csr, err = o.csrLocked(); err == nil {
			mo.w, err = kernel.NewWide(mo.csr, width)
		}
	} else {
		switch k := o.k.(type) {
		case *kernel.SymSweep:
			mo.w, err = k.Wide(width)
		case *kernel.Parallel:
			mo.w, err = k.Wide(width)
		default:
			mo.w, err = kernel.NewWide(k.Format(), width)
		}
	}
	if err != nil {
		return nil, err
	}
	if o.views == nil {
		o.views = make(map[viewKey]*MultiOperator)
	}
	o.views[key] = mo
	return mo, nil
}

// Symmetric reports whether the operator is backed by upper-triangle
// (SymCSR) storage.
func (o *Operator) Symmetric() bool {
	_, ok := o.k.(*kernel.SymSweep)
	return ok
}

// RowRange is a half-open row interval [Lo, Hi) with its nonzero count,
// produced by RowPartition for shard planning.
type RowRange struct {
	Lo, Hi int
	NNZ    int64
}

// RowPartition splits the operator's rows into n contiguous ranges
// balanced by nonzeros (the paper's §4.3 static load balancing). Disjoint
// ranges own disjoint destination rows, so shards of one sweep — serial or
// multi-RHS via MulAddRows — can run concurrently with no locking.
func (o *Operator) RowPartition(n int) ([]RowRange, error) {
	o.multiMu.Lock()
	csr, err := o.csrLocked()
	o.multiMu.Unlock()
	if err != nil {
		return nil, err
	}
	p, err := partition.ByNNZ(csr.RowPtr, n)
	if err != nil {
		return nil, err
	}
	out := make([]RowRange, len(p.Ranges))
	for i, r := range p.Ranges {
		out[i] = RowRange{Lo: r.Lo, Hi: r.Hi, NNZ: r.NNZ}
	}
	return out, nil
}

// TrafficOptions configures the DRAM-traffic model of internal/traffic.
type TrafficOptions = traffic.Options

// TrafficSummary is the modeled DRAM traffic and operation counts of one
// sweep; its MultiRHS method scales it to a fused k-vector sweep.
type TrafficSummary = traffic.Summary

// Traffic models the DRAM traffic of one y ← A·x sweep over the compiled
// encoding (§5.1's flop:byte analysis, made executable): what MulAdd and
// the wide views (WideMulti) stream. A parallel operator's parts are
// summed, and its source traffic is the whole-matrix gather. It is the
// single-RHS basis; scale with TrafficSummary.MultiRHS.
func (o *Operator) Traffic(opt TrafficOptions) (TrafficSummary, error) {
	p, ok := o.k.(*kernel.Parallel)
	if !ok {
		return traffic.Analyze(o.k.Format(), opt)
	}
	var total traffic.Summary
	for _, part := range p.Parts() {
		s, err := traffic.Analyze(part.Enc, opt)
		if err != nil {
			return TrafficSummary{}, err
		}
		total.Add(s)
	}
	// The parts of one fused sweep share the broadcast source block, so
	// x's compulsory traffic is the whole-matrix gather, not the per-part
	// sum (which would charge the shared columns once per part). The source
	// entries name the union of touched columns as they stand, so no CSR
	// copy is built or kept for it; under a bounded SourceCapacityLines the
	// window scan then follows their insertion order.
	whole, err := traffic.Analyze(o.src, opt)
	if err != nil {
		return TrafficSummary{}, err
	}
	total.SourceBytes = whole.SourceBytes
	return total, nil
}

// CompileSymmetric compiles a numerically symmetric matrix into a serial
// operator backed by upper-triangle (SymCSR) storage, halving the matrix
// stream — the symmetry optimization the paper's conclusions recommend for
// bandwidth reduction (§7) and that OSKI implements. Returns an error if
// the matrix is not exactly symmetric. Equivalent to
// CompileSymmetricParallel(m, 1), and bitwise identical to it at every
// thread count: the kernel's reduction order is canonical (see
// kernel.SymSweep), so threads change wall-clock, never bits.
func CompileSymmetric(m *Matrix) (*Operator, error) {
	return CompileSymmetricParallel(m, 1)
}

// CompileSymmetricParallel compiles a numerically symmetric matrix into a
// parallel operator over upper-triangle storage. The symmetric scatter
// y[j] += a_ij·x[i] races under plain row partitioning, so the kernel runs
// the pOSKI-style two-phase scheme: per-segment scan with private spill
// buffers, then a deterministic ordered reduction. Results are bitwise
// identical across thread counts and multi-RHS widths.
func CompileSymmetricParallel(m *Matrix, threads int) (*Operator, error) {
	if threads < 1 {
		return nil, fmt.Errorf("spmv: threads must be >= 1, got %d", threads)
	}
	csr, _, err := m.canonical()
	if err != nil {
		return nil, err
	}
	sym, err := matrix.SymFromCSR(csr)
	if err != nil {
		return nil, err
	}
	return symmetricOperator(sym, csr.FootprintBytes(), threads)
}

// symmetricOperator serves upper-triangle storage through the parallel
// symmetric sweep; baseline is the matrix's CSR32 footprint.
func symmetricOperator(sym *matrix.SymCSR, baseline int64, threads int) (*Operator, error) {
	sw, err := kernel.NewSymSweep(sym, threads)
	if err != nil {
		return nil, err
	}
	return &Operator{
		k:    sw,
		rows: sym.N, cols: sym.N,
		nnz:       sym.NNZ(),
		footprint: sym.FootprintBytes(),
		baseline:  baseline,
		threads:   threads,
		decisions: []Decision{{
			Rows: sym.N, Cols: sym.N, NNZ: sym.NNZ(),
			Format: "SymCSR", IndexBits: 32,
			Footprint: sym.FootprintBytes(),
			Fill:      float64(sym.Stored()) / float64(max(sym.NNZ(), 1)),
		}},
	}, nil
}

// Symmetrize returns the symmetric part (A + Aᵀ)/2 of a square matrix —
// the standard preconditioner-style symmetrization, useful for feeding
// CompileSymmetric with matrices whose structure is symmetric but whose
// values drifted (or were never symmetric to begin with). Duplicate
// entries are summed before halving, so the result is exactly symmetric:
// NewSymCSR always accepts it.
func Symmetrize(m *Matrix) (*Matrix, error) {
	rows, cols := m.Dims()
	if rows != cols {
		return nil, fmt.Errorf("spmv: Symmetrize needs a square matrix, got %dx%d", rows, cols)
	}
	csr, _, err := m.canonical() // sorted, duplicates summed
	if err != nil {
		return nil, err
	}
	out := NewMatrix(rows, rows)
	for i := 0; i < csr.R; i++ {
		for k := csr.RowPtr[i]; k < csr.RowPtr[i+1]; k++ {
			j := int(csr.Col[k])
			v := csr.Val[k]
			if i == j {
				_ = out.Set(i, i, v)
			} else {
				_ = out.Set(i, j, v/2)
				_ = out.Set(j, i, v/2)
			}
		}
	}
	return out, nil
}

// MultiOperator multiplies a block of k vectors in one matrix sweep — the
// multiple-vectors optimization (OSKI, §2.1), which raises the effective
// flop:byte ratio by nearly k for bandwidth-bound SpMV. It is backed by
// one width-k kernel: kernel.NewWide over the canonical CSR32 (Multi,
// CompileMulti) or over the tuned encoding (WideMulti), a parallel
// operator's Parallel.Wide, or, for symmetric operators, SymSweep.Wide
// (which streams the halved upper-triangle store once for all k vectors).
type MultiOperator struct {
	w          kernel.Wide
	csr        *matrix.CSR32 // the canonical CSR w streams; nil for any other storage
	rows, cols int
}

// CompileMulti builds a k-vector operator over CSR storage.
func CompileMulti(m *Matrix, vectors int) (*MultiOperator, error) {
	csr, _, err := m.canonical()
	if err != nil {
		return nil, err
	}
	w, err := kernel.NewWide(csr, vectors)
	if err != nil {
		return nil, err
	}
	return &MultiOperator{w: w, csr: csr, rows: csr.R, cols: csr.C}, nil
}

// Vectors returns the block width k.
func (o *MultiOperator) Vectors() int { return o.w.Width() }

// MulAll computes Y_v = A·X_v for all k vectors in one sweep.
func (o *MultiOperator) MulAll(xs [][]float64) ([][]float64, error) {
	nv := o.w.Width()
	if len(xs) != nv {
		return nil, fmt.Errorf("spmv: %d vectors, operator compiled for %d", len(xs), nv)
	}
	xBlock, err := Interleave(xs)
	if err != nil {
		return nil, err
	}
	yBlock := make([]float64, o.rows*nv)
	if err := o.MulAddBlock(yBlock, xBlock); err != nil {
		return nil, err
	}
	return Deinterleave(yBlock, nv)
}

// Dims returns (rows, cols).
func (o *MultiOperator) Dims() (rows, cols int) { return o.rows, o.cols }

// MulAddBlock computes Y ← Y + A·X over interleaved blocks (X[j*k+v] is
// element j of vector v; see Interleave). Callers that keep vectors in
// block layout avoid the pack/unpack of MulAll.
func (o *MultiOperator) MulAddBlock(yBlock, xBlock []float64) error {
	return o.w.MulAddBlock(yBlock, xBlock)
}

// MulAddBlockExec is MulAddBlock with the view's tasks scheduled through
// run (which must execute every task and return once all complete — e.g.
// a serving worker pool): a serial view's one task is the sweep itself, a
// row-partitioned view has one per part, a symmetric view its two phases.
// Scheduling never changes result bits.
func (o *MultiOperator) MulAddBlockExec(yBlock, xBlock []float64, run func(tasks []func())) error {
	return o.w.MulAddBlockExec(yBlock, xBlock, run)
}

// MulAddRows computes rows [lo, hi) of Y ← Y + A·X over interleaved
// blocks. Disjoint row ranges write disjoint regions of yBlock, so the
// shards of one fused sweep (see Operator.RowPartition) run concurrently
// without synchronization. Only views over the canonical CSR32 take it
// (Multi, CompileMulti): a symmetric sweep scatters outside [lo, hi), and
// tuned wide views parallelize internally — use MulAddBlock for both.
func (o *MultiOperator) MulAddRows(yBlock, xBlock []float64, lo, hi int) error {
	if o.csr == nil {
		return fmt.Errorf("spmv: only Multi's CSR views can be row-sharded externally; use MulAddBlock")
	}
	return kernel.MulAddCSRRows(o.csr, o.w.Width(), yBlock, xBlock, lo, hi)
}

// Interleave packs k equal-length column vectors into the row-major block
// layout the multi-RHS kernels consume.
func Interleave(xs [][]float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("spmv: no vectors")
	}
	n := len(xs[0])
	for i, x := range xs {
		if len(x) != n {
			return nil, fmt.Errorf("spmv: vector %d has length %d, want %d", i, len(x), n)
		}
	}
	block := make([]float64, n*len(xs))
	kernel.InterleaveInto(block, xs)
	return block, nil
}

// Deinterleave unpacks a block produced by the multi-RHS kernels back into
// k column vectors.
func Deinterleave(block []float64, k int) ([][]float64, error) {
	if k < 1 || len(block)%k != 0 {
		return nil, fmt.Errorf("spmv: block length %d not divisible by %d vectors", len(block), k)
	}
	ys := make([][]float64, k)
	for v := range ys {
		ys[v] = make([]float64, len(block)/k)
	}
	kernel.DeinterleaveInto(ys, block)
	return ys, nil
}
