package kernel

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// Part pairs a row range of the full matrix with the independently encoded
// sub-matrix (dimensions Range.Rows() × cols) owned by one thread. The
// paper builds exactly this structure for its NUMA-aware Pthreads version:
// each thread block is separately encoded (and may be cache/TLB/register
// blocked with its own parameters) and placed on its owning node's memory.
type Part struct {
	Range partition.Range
	Enc   matrix.Format
}

// Parallel is a row-partitioned multithreaded SpMV kernel. Each part is
// executed by its own goroutine (standing in for a pinned Pthread); parts
// own disjoint destination ranges, so the only shared state is the
// read-only source vector. Concurrent MulAdd calls are safe: the padded
// source and destination copies a call needs are its own, drawn from
// scratch.
type Parallel struct {
	rows, cols int
	nnz        int64
	parts      []parallelPart
	src        []Part // the encoded parts as assembled (for wide views)
	cpad       int
	scratch    sync.Pool // *parallelScratch, one per MulAdd in flight
	name       string
	seq        bool // run parts sequentially (for deterministic profiling)
}

type parallelPart struct {
	lo, hi int
	eng    engine
}

// parallelScratch is the padding one MulAdd call works in: the source
// extended with zeros to the widest engine's padded column extent (nil
// when no engine reads past cols) and, per part, a private destination
// whose padded extent would otherwise spill into the next part's rows
// (nil when the engine fits its row range). Pad elements beyond the
// copied-in data are never read back, so recycled scratch needs no
// clearing: xpad's tail is allocated zero and never written.
type parallelScratch struct {
	xpad []float64
	ypad [][]float64
}

func (p *Parallel) newScratch() *parallelScratch {
	sc := &parallelScratch{ypad: make([][]float64, len(p.parts))}
	if p.cpad > p.cols {
		sc.xpad = make([]float64, p.cpad)
	}
	for i := range p.parts {
		pp := &p.parts[i]
		if rp := pp.eng.rPad(); rp > pp.hi-pp.lo {
			sc.ypad[i] = make([]float64, rp)
		}
	}
	return sc
}

// NewParallel assembles a parallel kernel from encoded parts. The parts
// must tile the row space in order.
func NewParallel(rows, cols int, parts []Part) (*Parallel, error) {
	p := &Parallel{rows: rows, cols: cols, cpad: cols,
		name: fmt.Sprintf("parallel[%d]", len(parts))}
	at := 0
	for i, pt := range parts {
		if pt.Range.Lo != at {
			return nil, fmt.Errorf("kernel: part %d starts at row %d, want %d", i, pt.Range.Lo, at)
		}
		at = pt.Range.Hi
		er, ec := pt.Enc.Dims()
		if er != pt.Range.Rows() || ec != cols {
			return nil, fmt.Errorf("kernel: part %d encoding %dx%d, want %dx%d",
				i, er, ec, pt.Range.Rows(), cols)
		}
		eng, _, err := compileEngine(pt.Enc)
		if err != nil {
			return nil, fmt.Errorf("kernel: part %d: %w", i, err)
		}
		if eng.cPad() > p.cpad {
			p.cpad = eng.cPad()
		}
		p.nnz += pt.Enc.NNZ()
		p.parts = append(p.parts, parallelPart{lo: pt.Range.Lo, hi: pt.Range.Hi, eng: eng})
	}
	if at != rows {
		return nil, fmt.Errorf("kernel: parts end at row %d, want %d", at, rows)
	}
	p.src = append([]Part(nil), parts...)
	return p, nil
}

// Parts returns the encoded row parts the kernel was assembled from, in
// row order. NewWideParallel builds width-k views of the same
// decomposition from them.
func (p *Parallel) Parts() []Part { return p.src }

// SetSequential forces the parts to run one after another on the calling
// goroutine. The simulator uses this to obtain deterministic per-part
// traces; results are identical either way.
func (p *Parallel) SetSequential(seq bool) { p.seq = seq }

// Threads returns the number of parts (one goroutine each).
func (p *Parallel) Threads() int { return len(p.parts) }

// MulAdd implements Kernel. Parts own disjoint destination rows, so the
// per-row reduction order is fixed regardless of scheduling — the
// bitwise thread-invariance contract spmv-vet's detpure analyzer guards.
//
//spmv:deterministic
func (p *Parallel) MulAdd(y, x []float64) error {
	if len(y) != p.rows || len(x) != p.cols {
		return fmt.Errorf("%w: matrix %dx%d with len(y)=%d len(x)=%d",
			matrix.ErrShape, p.rows, p.cols, len(y), len(x))
	}
	sc, _ := p.scratch.Get().(*parallelScratch)
	if sc == nil {
		sc = p.newScratch()
	}
	defer p.scratch.Put(sc)
	xp := x
	if sc.xpad != nil {
		copy(sc.xpad, x)
		xp = sc.xpad
	}
	if p.seq {
		for i := range p.parts {
			p.parts[i].mulAdd(y, xp, sc.ypad[i])
		}
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(len(p.parts))
	for i := range p.parts {
		go func(pp *parallelPart, ypad []float64) {
			defer wg.Done()
			pp.mulAdd(y, xp, ypad)
		}(&p.parts[i], sc.ypad[i])
	}
	wg.Wait()
	return nil
}

// mulAdd runs one part against the full-length destination and padded
// source. A private ypad is used whenever the engine's padded extent would
// spill into a neighbouring part's rows, which would otherwise be a data
// race (even though the spilled contributions are arithmetically zero).
func (pp *parallelPart) mulAdd(y, xp, ypad []float64) {
	if ypad == nil {
		pp.eng.run(y[pp.lo:pp.hi], xp)
		return
	}
	copy(ypad, y[pp.lo:pp.hi])
	pp.eng.run(ypad, xp)
	copy(y[pp.lo:pp.hi], ypad[:pp.hi-pp.lo])
}

// Format implements Kernel. The parallel kernel is itself a composite; it
// reports a synthetic Format describing the union of its parts.
func (p *Parallel) Format() matrix.Format { return (*parallelFormat)(p) }

// Name implements Kernel.
func (p *Parallel) Name() string { return p.name }

// parallelFormat adapts Parallel to the matrix.Format interface so that
// footprint accounting can treat threaded matrices uniformly.
type parallelFormat Parallel

func (f *parallelFormat) Dims() (int, int) { return f.rows, f.cols }
func (f *parallelFormat) NNZ() int64       { return f.nnz }

func (f *parallelFormat) Stored() int64 {
	var s int64
	for _, pp := range f.parts {
		s += engineStored(pp.eng)
	}
	return s
}

func (f *parallelFormat) FootprintBytes() int64 {
	var s int64
	for _, pp := range f.parts {
		s += engineFootprint(pp.eng)
	}
	return s
}

func (f *parallelFormat) FormatName() string { return (*Parallel)(f).name }

// engineStored and engineFootprint recover the Format carried by an engine.
func engineStored(e engine) int64 {
	if fm := engineFormat(e); fm != nil {
		return fm.Stored()
	}
	return 0
}

func engineFootprint(e engine) int64 {
	if fm := engineFormat(e); fm != nil {
		return fm.FootprintBytes()
	}
	return 0
}

func engineFormat(e engine) matrix.Format {
	switch t := e.(type) {
	case *cooEngine:
		return t.m
	case *naiveCSREngine[uint16]:
		return t.m
	case *naiveCSREngine[uint32]:
		return t.m
	case *singleLoopCSREngine[uint16]:
		return t.m
	case *singleLoopCSREngine[uint32]:
		return t.m
	case *branchlessCSREngine[uint16]:
		return t.m
	case *branchlessCSREngine[uint32]:
		return t.m
	case *bcsrEngine[uint16]:
		return t.m
	case *bcsrEngine[uint32]:
		return t.m
	case *bcooEngine[uint16]:
		return t.m
	case *bcooEngine[uint32]:
		return t.m
	case *compositeEngine:
		var s, f int64
		for _, b := range t.blocks {
			if fm := engineFormat(b.eng); fm != nil {
				s += fm.Stored()
				f += fm.FootprintBytes()
			}
		}
		return &syntheticFormat{r: t.rp, c: t.cp, stored: s, foot: f}
	default:
		return nil
	}
}

// syntheticFormat carries aggregate accounting for composite engines.
type syntheticFormat struct {
	r, c   int
	stored int64
	foot   int64
}

func (f *syntheticFormat) Dims() (int, int)      { return f.r, f.c }
func (f *syntheticFormat) NNZ() int64            { return f.stored }
func (f *syntheticFormat) Stored() int64         { return f.stored }
func (f *syntheticFormat) FootprintBytes() int64 { return f.foot }
func (f *syntheticFormat) FormatName() string    { return "composite" }
