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
//     NUMA node assignment; every thread block is tuned independently.
//
// Deciding and applying are two steps, as OSKI's oski_GetMatTransforms
// and oski_ApplyMatTransforms are: NewPlan cuts and enumerates each block
// once and returns the decisions with their exact footprints, and
// Plan.Encode builds only the chosen encodings from the plan's cuts.
package tune

import (
	"fmt"
	"math/bits"
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
	// MinBlockRows drops the multi-column tile shapes with fewer rows than
	// this; 0 admits all nine. At width 1 a tile row is one dependent add
	// chain, as a CSR row is, so a 1×c tile only adds its fill to the
	// chain, while r ≥ 2 rows run r independent chains. The 1×1 shapes
	// always stay: they add no fill, and BCOO 1×1 is how a matrix with
	// mostly empty rows sheds CSR's row pointers. DefaultOptions and the
	// serving layer (server.servingTune) set 2.
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

	// TrySymmetric lets the compile path (spmv.Compile, CompileParallel)
	// serve a square, numerically symmetric matrix from upper-triangle
	// (SymCSR) storage when that footprint is strictly smaller than the
	// general plan's TotalFootprint — the bandwidth-reduction extension
	// the paper's conclusions recommend (§7) and OSKI implements — at any
	// thread count, encoding the plan only when it wins. NewPlan itself
	// never reads it: the choice is made once, on the whole matrix's
	// canonical CSR, and recorded as a single "SymCSR" Decision.
	TrySymmetric bool
}

// DefaultOptions returns the fully-enabled tuner for a generic 64-byte-line
// machine with a 1MB blocking budget — the "[PF,RB,CB]" configuration.
func DefaultOptions() Options {
	return Options{
		RegisterBlock:    true,
		MinBlockRows:     2,
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

// Plan is the tuner's decision for one matrix, kept apart from its
// encoding as OSKI keeps a tuning apart from applying it: NewPlan blocks
// the matrix, cuts each block once and picks each block's encoding from
// the enumeration's closed-form footprints; Encode materializes exactly
// those choices.
type Plan struct {
	// Decisions is the per-cache-block log, thread part by thread part.
	Decisions      []Decision
	TotalFootprint int64
	// BaselineFootprint is the footprint of plain CSR32, the reference
	// the paper's 16-bytes-per-nonzero analysis starts from.
	BaselineFootprint int64
	// Range is the plan's rows: a thread part's, or the whole matrix's.
	Range partition.Range
	// Parts are the thread parts' plans in row order when the plan was
	// made for more than one thread, else nil.
	Parts []*Plan

	cols    int
	whole   *matrix.CSR32            // an unblocked plan's one block, encoded as is
	cuts    []*matrix.Packed[uint32] // a blocked plan's blocks, until Encode takes them
	encoded bool
}

// Savings returns 1 - tuned/baseline footprint (0 when nothing saved).
func (p *Plan) Savings() float64 {
	if p.BaselineFootprint == 0 {
		return 0
	}
	s := 1 - float64(p.TotalFootprint)/float64(p.BaselineFootprint)
	if s < 0 {
		return 0
	}
	return s
}

// NewPlan plans the matrix for the given thread count: for threads > 1
// it partitions the rows by nonzeros and plans each part independently,
// so one thread's blocks can be 4x1 BCSR/16 while another's are 1x4
// BCOO/32, exactly as the paper describes. Nothing is encoded.
func NewPlan(csr *matrix.CSR32, opt Options, threads int) (*Plan, error) {
	normalize(&opt)
	all := partition.Range{Hi: csr.R, NNZ: csr.NNZ()}
	if threads <= 1 {
		return plan(csr, opt, all)
	}
	part, err := partition.ByNNZ(csr.RowPtr, threads)
	if err != nil {
		return nil, err
	}
	p := &Plan{BaselineFootprint: csr.FootprintBytes(), Range: all, cols: csr.C}
	for _, r := range part.Ranges {
		pp, err := plan(csr.RowBand(r.Lo, r.Hi), opt, r)
		if err != nil {
			return nil, err
		}
		p.Parts = append(p.Parts, pp)
		p.Decisions = append(p.Decisions, pp.Decisions...)
		p.TotalFootprint += pp.TotalFootprint
	}
	return p, nil
}

// plan blocks one serial matrix (a thread part, in its own coordinates,
// or the whole matrix), cuts each row band into its blocks at once and
// picks each non-empty block's encoding.
func plan(csr *matrix.CSR32, opt Options, r partition.Range) (*Plan, error) {
	p := &Plan{BaselineFootprint: csr.FootprintBytes(), Range: r, cols: csr.C}
	blocks, err := planBlocks(csr, opt)
	if err != nil {
		return nil, err
	}
	if len(blocks) == 1 && blocks[0] == (span{0, csr.R, 0, csr.C}) {
		// No blocking: the whole matrix is the one block.
		d := choose(csr.Pack(), opt)
		p.Decisions, p.whole = []Decision{d}, csr
		p.TotalFootprint = d.Footprint
		return p, nil
	}

	// Blocks come band by band, each band's spans tiling [0, C) left to
	// right, so each band is cut into its blocks at once.
	for lo := 0; lo < len(blocks); {
		hi := lo + 1
		for hi < len(blocks) && blocks[hi].r0 == blocks[lo].r0 {
			hi++
		}
		edges := make([]int, 0, hi-lo+1)
		for _, b := range blocks[lo:hi] {
			edges = append(edges, b.c0)
		}
		edges = append(edges, blocks[hi-1].c1)
		subs := csr.CutBand(blocks[lo].r0, blocks[lo].r1, edges)
		for j, b := range blocks[lo:hi] {
			if subs[j].NNZ() == 0 {
				continue // empty cache blocks are simply not stored
			}
			d := choose(subs[j], opt)
			d.RowOff, d.ColOff = b.r0, b.c0
			p.Decisions = append(p.Decisions, d)
			p.cuts = append(p.cuts, subs[j])
			p.TotalFootprint += d.Footprint + 32
		}
		lo = hi
	}
	return p, nil
}

// Encode materializes the plan's decisions from the blocks NewPlan cut,
// without cutting or enumerating again: one part per thread part, tagged
// with its NUMA node as partition.AssignNUMA spreads the parts over
// numaNodes, or a single part spanning every row for a serial plan, whose
// encoding is the serial format. Each cut is let go once it is encoded,
// so a plan encodes once.
func (p *Plan) Encode(numaNodes int) ([]kernel.Part, error) {
	plans := p.Parts
	if plans == nil {
		plans = []*Plan{p}
	}
	part := &partition.Partition{TotalRows: p.Range.Hi, Ranges: make([]partition.Range, len(plans))}
	for i, pp := range plans {
		part.Ranges[i] = pp.Range
	}
	partition.AssignNUMA(part, numaNodes)
	parts := make([]kernel.Part, len(plans))
	for i, pp := range plans {
		enc, err := pp.encode()
		if err != nil {
			return nil, err
		}
		parts[i] = kernel.Part{Range: part.Ranges[i], Enc: enc}
	}
	return parts, nil
}

// encode materializes one serial plan: its one block as is, or its
// blocks assembled into a cache-blocked matrix. A block is unpacked only
// to be encoded; BCOO and BCSR with tiles over 1×1 copy what they need
// of its row pointers, so those blocks unpack into one reused array,
// while CSR and 1×1 BCSR keep theirs (DESIGN §2).
func (p *Plan) encode() (matrix.Format, error) {
	if p.encoded {
		return nil, fmt.Errorf("tune: plan already encoded")
	}
	p.encoded = true
	if csr := p.whole; csr != nil {
		p.whole = nil
		return materialize(csr, p.Decisions[0])
	}
	var scratch []int64
	cbs := make([]matrix.CacheBlock, 0, len(p.cuts))
	for i, d := range p.Decisions {
		var csr *matrix.CSR32
		if d.Format == "BCOO" || d.Format == "BCSR" && d.Shape.Area() > 1 {
			csr = p.cuts[i].Unpack(scratch)
			scratch = csr.RowPtr
		} else {
			csr = p.cuts[i].Unpack(nil)
		}
		p.cuts[i] = nil // let the cut go once it is encoded
		enc, err := materialize(csr, d)
		if err != nil {
			return nil, err
		}
		cbs = append(cbs, matrix.CacheBlock{
			RowOff: d.RowOff, ColOff: d.ColOff,
			Rows: d.Rows, Cols: d.Cols,
			Enc: enc,
		})
	}
	cb := matrix.NewCacheBlocked(p.Range.Rows(), p.cols, cbs)
	if err := cb.Validate(); err != nil {
		return nil, fmt.Errorf("tune: produced invalid blocking: %w", err)
	}
	return cb, nil
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
	const elemBytes = 8 // one float64 per vector element
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
	vectorsFit := int64(csr.R+csr.C)*elemBytes <= opt.CacheBudgetBytes
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
	marks := make([]uint64, (csr.C+63)/64)
	for r0 := 0; r0 < csr.R; r0 += bandRows {
		r1 := r0 + bandRows
		if r1 > csr.R {
			r1 = csr.R
		}
		touched := touchedColumns(csr, r0, r1, marks)

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
// rows [r0,r1): each nonzero sets its column's bit in marks (all clear on
// entry), and one scan of the words between the lowest and highest set
// bit lists them in order and clears them again.
func touchedColumns(csr *matrix.CSR32, r0, r1 int, marks []uint64) []int32 {
	cols := csr.Col[csr.RowPtr[r0]:csr.RowPtr[r1]]
	if len(cols) == 0 {
		return nil
	}
	lo, hi := cols[0]>>6, cols[0]>>6
	for _, c := range cols {
		w := c >> 6
		marks[w] |= 1 << (c & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	var out []int32
	for w := lo; w <= hi; w++ {
		word := marks[w]
		marks[w] = 0
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6)+int32(bits.TrailingZeros64(word)))
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
