// Package tune implements the paper's heuristic SpMV auto-tuner (§4.2):
//
//   - Register blocking / format / index-width selection: "our
//     implementation performs one pass over the nonzeros to determine the
//     combination of register blocking, index size, first/last row, and
//     format that minimizes the matrix footprint." No benchmarking search
//     (that is OSKI's approach, reproduced in internal/oski); just exact
//     footprint accounting over the nine power-of-two tile shapes, two
//     index widths, and CSR / BCSR / BCOO formats.
//
//   - Sparse cache blocking: a fixed budget of cache lines is divided
//     between source- and destination-vector elements; each cache block
//     spans however many columns it takes to touch exactly the source
//     budget (so blocks touch equal numbers of useful lines even though
//     they span unequal column counts).
//
//   - TLB blocking: the same heuristic at page granularity, applied
//     between the cache-row and cache-column subdivisions.
//
//   - Thread decomposition: row partitioning balanced by nonzeros with
//     NUMA node assignment; every thread block is tuned independently, so
//     one thread's blocks can be 4x1 BCSR/16 while another's are 1x4
//     BCOO/32, exactly as the paper describes.
package tune

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// Options controls which optimization classes the tuner may apply and the
// hardware parameters the heuristics consult. The zero value disables
// everything and yields plain CSR32 (the "naive" configuration).
type Options struct {
	// RegisterBlock enables BCSR/BCOO tile-shape selection.
	RegisterBlock bool
	// MinBlockRows limits register blocking to tile shapes of at least this
	// many rows; 0 admits all nine. At width 1 a tile row is one dependent
	// add chain, as a CSR row is, so a 1×c tile only adds its fill to the
	// chain, while r ≥ 2 rows run r independent chains (a serving layer
	// sets 2; see server.servingTune).
	MinBlockRows int
	// ReduceIndices enables 16-bit indices when dimensions permit.
	ReduceIndices bool
	// AllowBCOO enables block-coordinate storage (chosen on footprint,
	// which favours it exactly when empty rows waste row pointers).
	AllowBCOO bool

	// CacheBlock enables sparse cache blocking with the budget below.
	CacheBlock bool
	// CacheBudgetBytes is the cache capacity dedicated to vector blocking
	// (the paper blocks for a fraction of L2; callers typically pass half
	// the per-thread share of the L2).
	CacheBudgetBytes int64
	// LineBytes is the cache line size (64 on the x86 systems).
	LineBytes int
	// SourceShare is the fraction of the line budget given to the source
	// vector (the rest caches the destination). 0 defaults to 0.75.
	SourceShare float64

	// TLBBlock enables TLB blocking with the page geometry below.
	TLBBlock   bool
	PageBytes  int
	TLBEntries int

	// FixedColumnSpan switches cache blocking to classical dense blocks of
	// exactly this many columns (the Cell implementation of §4.4, which
	// DMAs whole source-vector spans into the local store), instead of the
	// sparse line-budget heuristic. 0 selects sparse cache blocking.
	FixedColumnSpan int

	// VectorWidth is the fused multi-RHS width the encoding should be
	// blocked for (a serving layer's observed batch width; see §2.1's
	// multiple-vectors optimization). Cache and TLB blocking treat every
	// vector element as VectorWidth interleaved values — 8*VectorWidth
	// bytes per logical element — so a width-k fused sweep's vector
	// working set still fits the budget. <= 1 tunes for single-vector
	// sweeps (the default, and the registration-time guess of the
	// serving layer before it has observed any traffic).
	VectorWidth int

	// TrySymmetric additionally considers upper-triangle (SymCSR) storage
	// for square, numerically symmetric matrices: when the symmetric build
	// succeeds and its footprint beats the blocked plan, the whole matrix
	// is encoded symmetric instead — the bandwidth-reduction extension the
	// paper's conclusions recommend (§7) and OSKI implements. The choice
	// is recorded as a single "SymCSR" Decision. Thread blocks of a
	// parallel tune are rectangular row bands and never qualify, so the
	// option only fires on whole-matrix (serial) tunes.
	TrySymmetric bool
}

// DefaultOptions returns the fully-enabled tuner for a generic 64-byte-line
// machine with a 1MB blocking budget — the "[PF,RB,CB]" configuration.
func DefaultOptions() Options {
	return Options{
		RegisterBlock:    true,
		ReduceIndices:    true,
		AllowBCOO:        true,
		CacheBlock:       true,
		CacheBudgetBytes: 1 << 20,
		LineBytes:        64,
		SourceShare:      0.75,
		TLBBlock:         true,
		PageBytes:        4096,
		TLBEntries:       32,
	}
}

// Decision records what the tuner chose for one cache block.
type Decision struct {
	RowOff, ColOff int
	Rows, Cols     int
	NNZ            int64
	Format         string            // "CSR", "BCSR", "BCOO"
	Shape          matrix.BlockShape // meaningful for BCSR/BCOO
	IndexBits      int               // 16 or 32
	Footprint      int64
	Fill           float64 // stored/nnz
}

// Result is the tuner's output: the encoded matrix plus its decision log
// and footprint accounting against the untuned baseline.
type Result struct {
	Enc            matrix.Format
	Decisions      []Decision
	TotalFootprint int64
	// BaselineFootprint is the footprint of plain CSR32, the reference
	// the paper's 16-bytes-per-nonzero analysis starts from.
	BaselineFootprint int64
}

// Savings returns 1 - tuned/baseline footprint (0 when nothing saved).
func (r *Result) Savings() float64 {
	if r.BaselineFootprint == 0 {
		return 0
	}
	s := 1 - float64(r.TotalFootprint)/float64(r.BaselineFootprint)
	if s < 0 {
		return 0
	}
	return s
}

// Tune encodes a matrix according to the options, returning the composite
// encoding and the per-block decision log.
func Tune(csr *matrix.CSR32, opt Options) (*Result, error) {
	res, err := tuneGeneral(csr, opt)
	if err != nil {
		return nil, err
	}
	if opt.TrySymmetric && csr.R == csr.C {
		if sym, err := matrix.NewSymCSR(csr.ToCOO()); err == nil && sym.FootprintBytes() < res.TotalFootprint {
			res.Enc = sym
			res.TotalFootprint = sym.FootprintBytes()
			res.Decisions = []Decision{{
				Rows: sym.N, Cols: sym.N, NNZ: sym.NNZ(),
				Format: "SymCSR", IndexBits: 32,
				Footprint: sym.FootprintBytes(),
				Fill:      float64(sym.Stored()) / float64(max(sym.NNZ(), 1)),
			}}
		}
	}
	return res, nil
}

// tuneGeneral runs the §4.2 blocking/format/index-width heuristic.
func tuneGeneral(csr *matrix.CSR32, opt Options) (*Result, error) {
	normalize(&opt)
	res := &Result{BaselineFootprint: csr.FootprintBytes()}

	blocks, err := planBlocks(csr, opt)
	if err != nil {
		return nil, err
	}

	if len(blocks) == 1 && blocks[0] == (span{0, csr.R, 0, csr.C}) {
		// No blocking: encode the whole matrix directly.
		enc, dec, err := encodeBest(csr, opt)
		if err != nil {
			return nil, err
		}
		res.Enc = enc
		res.Decisions = []Decision{dec}
		res.TotalFootprint = enc.FootprintBytes()
		return res, nil
	}

	var cbs []matrix.CacheBlock
	for _, b := range blocks {
		sub := csr.SubmatrixCOO(b.r0, b.r1, b.c0, b.c1)
		if sub.NNZ() == 0 {
			continue // empty cache blocks are simply not stored
		}
		subCSR, err := matrix.NewCSR[uint32](sub)
		if err != nil {
			return nil, err
		}
		enc, dec, err := encodeBest(subCSR, opt)
		if err != nil {
			return nil, err
		}
		dec.RowOff, dec.ColOff = b.r0, b.c0
		cbs = append(cbs, matrix.CacheBlock{
			RowOff: b.r0, ColOff: b.c0,
			Rows: b.r1 - b.r0, Cols: b.c1 - b.c0,
			Enc: enc,
		})
		res.Decisions = append(res.Decisions, dec)
		res.TotalFootprint += enc.FootprintBytes() + 32
	}
	cb := matrix.NewCacheBlocked(csr.R, csr.C, cbs)
	if err := cb.Validate(); err != nil {
		return nil, fmt.Errorf("tune: produced invalid blocking: %w", err)
	}
	res.Enc = cb
	return res, nil
}

// TuneParallel partitions the matrix by nonzeros across threads, tunes each
// thread block independently, and assembles the row-parallel kernel. NUMA
// node assignment tags each part for the platform model.
func TuneParallel(csr *matrix.CSR32, opt Options, threads, numaNodes int) (*kernel.Parallel, []*Result, error) {
	part, err := partition.ByNNZ(csr.RowPtr, threads)
	if err != nil {
		return nil, nil, err
	}
	partition.AssignNUMA(part, numaNodes)
	var parts []kernel.Part
	var results []*Result
	for _, r := range part.Ranges {
		sub := csr.SubmatrixCOO(r.Lo, r.Hi, 0, csr.C)
		subCSR, err := matrix.NewCSR[uint32](sub)
		if err != nil {
			return nil, nil, err
		}
		res, err := Tune(subCSR, opt)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, kernel.Part{Range: r, Enc: res.Enc})
		results = append(results, res)
	}
	pk, err := kernel.NewParallel(csr.R, csr.C, parts)
	if err != nil {
		return nil, nil, err
	}
	return pk, results, nil
}

func normalize(opt *Options) {
	if opt.LineBytes <= 0 {
		opt.LineBytes = 64
	}
	if opt.SourceShare <= 0 || opt.SourceShare >= 1 {
		opt.SourceShare = 0.75
	}
	if opt.PageBytes <= 0 {
		opt.PageBytes = 4096
	}
	if opt.TLBEntries <= 0 {
		opt.TLBEntries = 32
	}
	if opt.CacheBudgetBytes <= 0 {
		opt.CacheBudgetBytes = 1 << 20
	}
	if opt.VectorWidth < 1 {
		opt.VectorWidth = 1
	}
}

// span is a rectangle of the matrix, rows [r0,r1) × cols [c0,c1).
type span struct{ r0, r1, c0, c1 int }

// planBlocks computes the cache/TLB blocking grid. Blocking is skipped
// entirely when the vectors already fit the budget — the paper's blocking
// only pays when capacity misses exist to remove.
func planBlocks(csr *matrix.CSR32, opt Options) ([]span, error) {
	whole := []span{{0, csr.R, 0, csr.C}}
	if !opt.CacheBlock && !opt.TLBBlock {
		return whole, nil
	}
	// A width-k fused sweep interleaves k values per vector element, so
	// every blocking quantity is derived from the effective element size
	// 8*VectorWidth: lines and pages hold proportionally fewer logical
	// elements and blocks shrink until the fused working set fits.
	elemBytes := 8 * opt.VectorWidth
	lineElems := opt.LineBytes / elemBytes
	if lineElems < 1 {
		lineElems = 1
	}
	budgetLines := int(opt.CacheBudgetBytes / int64(opt.LineBytes))
	srcLines := int(float64(budgetLines) * opt.SourceShare)
	dstLines := budgetLines - srcLines
	if srcLines < 1 || dstLines < 1 {
		return whole, nil
	}
	vectorsFit := int64(csr.R+csr.C)*int64(elemBytes) <= opt.CacheBudgetBytes
	if opt.CacheBlock && vectorsFit && opt.FixedColumnSpan == 0 {
		return whole, nil
	}

	if opt.FixedColumnSpan > 0 {
		// Dense (Cell-style) blocking: fixed column width, row bands from
		// the destination budget, no TLB pass.
		bandRows := dstLines * lineElems
		if bandRows < 1 {
			bandRows = 1
		}
		var out []span
		for r0 := 0; r0 < csr.R; r0 += bandRows {
			r1 := r0 + bandRows
			if r1 > csr.R {
				r1 = csr.R
			}
			for _, cs := range partition.FixedWidthSpans(csr.C, opt.FixedColumnSpan) {
				out = append(out, span{r0, r1, cs.Lo, cs.Hi})
			}
		}
		if len(out) == 0 {
			return whole, nil
		}
		return out, nil
	}

	// 1. Row bands sized to the destination budget.
	bandRows := dstLines * lineElems
	if !opt.CacheBlock {
		bandRows = csr.R // TLB-only blocking keeps full-height bands
	}
	if bandRows < 1 {
		bandRows = 1
	}
	var out []span
	for r0 := 0; r0 < csr.R; r0 += bandRows {
		r1 := r0 + bandRows
		if r1 > csr.R {
			r1 = csr.R
		}
		touched := touchedColumns(csr, r0, r1)

		// 2. TLB blocking between cache rows and cache columns: limit the
		// distinct source pages per block.
		pageSpans := []partition.ColumnSpan{{Lo: 0, Hi: csr.C}}
		if opt.TLBBlock {
			pageElems := opt.PageBytes / elemBytes
			if pageElems < 1 {
				pageElems = 1
			}
			// Reserve a few entries for the matrix streams and destination.
			budget := opt.TLBEntries - 4
			if budget < 1 {
				budget = 1
			}
			pageSpans = partition.SpansByLineBudget(csr.C, pageElems, budget, touched)
		}

		// 3. Cache-column blocking inside each page span.
		for _, ps := range pageSpans {
			if !opt.CacheBlock {
				out = append(out, span{r0, r1, ps.Lo, ps.Hi})
				continue
			}
			sub := filterRange(touched, ps.Lo, ps.Hi)
			rel := make([]int32, len(sub))
			for i, c := range sub {
				rel[i] = c - int32(ps.Lo)
			}
			colSpans := partition.SpansByLineBudget(ps.Hi-ps.Lo, lineElems, srcLines, rel)
			for _, cs := range colSpans {
				out = append(out, span{r0, r1, ps.Lo + cs.Lo, ps.Lo + cs.Hi})
			}
		}
	}
	if len(out) == 0 {
		return whole, nil
	}
	return out, nil
}

// touchedColumns returns the sorted distinct column indices referenced by
// rows [r0,r1).
func touchedColumns(csr *matrix.CSR32, r0, r1 int) []int32 {
	var cols []int32
	for i := r0; i < r1; i++ {
		for k := csr.RowPtr[i]; k < csr.RowPtr[i+1]; k++ {
			cols = append(cols, int32(csr.Col[k]))
		}
	}
	sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
	out := cols[:0]
	var prev int32 = -1
	for _, c := range cols {
		if c != prev {
			out = append(out, c)
			prev = c
		}
	}
	return out
}

// filterRange returns the elements of sorted xs in [lo, hi).
func filterRange(xs []int32, lo, hi int) []int32 {
	start := sort.Search(len(xs), func(i int) bool { return int(xs[i]) >= lo })
	end := sort.Search(len(xs), func(i int) bool { return int(xs[i]) >= hi })
	return xs[start:end]
}
