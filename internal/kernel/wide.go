package kernel

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
)

// Wide is a width-k multi-RHS kernel bound to one encoded matrix: one
// matrix stream multiplies k interleaved vectors (the layout of MultiVec:
// X[j*k+v] is element j of vector v). Where MultiVec fuses vectors over
// the plain CSR stream, a Wide kernel fuses them over ANY of the tuner's
// encodings — register-blocked, block-coordinate, cache-blocked, or
// symmetric — combining the paper's two biggest bandwidth reductions
// (data-structure compression and multiple vectors, §2.1) in one sweep.
//
// Lanes are independent and each lane accumulates in the same order at
// every width, so lane v of a width-k sweep is bitwise identical to the
// width-1 sweep of the same kernel. CSR-backed Wide kernels run MultiVec's
// own loop nest (csrMultiRows), so at either index width their bits and
// their speed are MultiVec's; BCSR-backed ones run bcsrMultiRows, which
// sums each row in the same order and so returns the same bits.
type Wide interface {
	// MulAddBlock computes Y ← Y + A·X over interleaved width-k blocks.
	// Safe for concurrent use.
	MulAddBlock(yBlock, xBlock []float64) error
	// Width returns the fused vector count k.
	Width() int
	// Name identifies the kernel variant, e.g. "bcsr2x2/16/wide4".
	Name() string
}

// NewWide compiles a width-k multi-RHS kernel for an encoded matrix. Every
// format internal/tune can produce is supported; parallel composites are
// built with NewWideParallel instead.
func NewWide(fm matrix.Format, width int) (Wide, error) {
	if width < 1 {
		return nil, fmt.Errorf("kernel: need at least 1 vector, got %d", width)
	}
	if sym, ok := fm.(*matrix.SymCSR); ok {
		sw, err := NewSymSweep(sym, 1)
		if err != nil {
			return nil, err
		}
		return &wideSym{sw: sw, nv: width}, nil
	}
	eng, name, err := newWideEngine(fm, width)
	if err != nil {
		return nil, err
	}
	r, c := fm.Dims()
	return newWideSerial(eng, r, c, width, fmt.Sprintf("%s/wide%d", name, width)), nil
}

// wideEngine is the internal compute interface, the width-k analogue of
// engine: run operates on padded interleaved blocks of len >= rPad()*k and
// cPad()*k, with x's pad region zero on entry and y's ignored on exit.
type wideEngine interface {
	run(ypad, xpad []float64)
	rPad() int
	cPad() int
}

// newWideEngine builds the raw width-k engine for any serial encoding.
func newWideEngine(fm matrix.Format, nv int) (wideEngine, string, error) {
	switch m := fm.(type) {
	case *matrix.COO:
		return &wideCOO{m: m, nv: nv}, "coo", nil
	case *matrix.CSR16:
		return &wideCSR[uint16]{m: m, nv: nv}, "csr16", nil
	case *matrix.CSR32:
		return &wideCSR[uint32]{m: m, nv: nv}, "csr32", nil
	case *matrix.BCSR[uint16]:
		return &wideBCSR[uint16]{m: m, nv: nv}, fmt.Sprintf("bcsr%dx%d/16", m.Shape.R, m.Shape.C), nil
	case *matrix.BCSR[uint32]:
		return &wideBCSR[uint32]{m: m, nv: nv}, fmt.Sprintf("bcsr%dx%d/32", m.Shape.R, m.Shape.C), nil
	case *matrix.BCOO[uint16]:
		return newWideBCOO(m, nv), fmt.Sprintf("bcoo%dx%d/16", m.Shape.R, m.Shape.C), nil
	case *matrix.BCOO[uint32]:
		return newWideBCOO(m, nv), fmt.Sprintf("bcoo%dx%d/32", m.Shape.R, m.Shape.C), nil
	case *matrix.CacheBlocked:
		eng, err := newWideComposite(m, nv)
		return eng, fmt.Sprintf("cacheblocked[%d]", len(m.Blocks)), err
	default:
		return nil, "", fmt.Errorf("kernel: no wide kernel for format %T", fm)
	}
}

// wideSerial wraps a wideEngine into a Wide, managing pad scratch. Unlike
// the scalar serial wrapper, pad buffers come from a pool so concurrent
// sweeps (a serving layer's overlapping batches) never share scratch.
type wideSerial struct {
	eng        wideEngine
	rows, cols int
	nv         int
	name       string
	ylen, xlen int // padded block lengths; == logical when no padding
	pads       sync.Pool
}

type wideScratch struct{ y, x []float64 }

func newWideSerial(eng wideEngine, rows, cols, nv int, name string) *wideSerial {
	return &wideSerial{
		eng: eng, rows: rows, cols: cols, nv: nv, name: name,
		ylen: eng.rPad() * nv, xlen: eng.cPad() * nv,
	}
}

func (w *wideSerial) Width() int   { return w.nv }
func (w *wideSerial) Name() string { return w.name }

func (w *wideSerial) MulAddBlock(y, x []float64) error {
	if len(y) != w.rows*w.nv || len(x) != w.cols*w.nv {
		return fmt.Errorf("%w: matrix %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, w.rows, w.cols, w.nv, len(y), len(x))
	}
	if w.ylen == len(y) && w.xlen == len(x) {
		w.eng.run(y, x)
		return nil
	}
	sc, _ := w.pads.Get().(*wideScratch)
	if sc == nil {
		sc = &wideScratch{}
	}
	yp := y
	if w.ylen > len(y) {
		if cap(sc.y) < w.ylen {
			sc.y = make([]float64, w.ylen)
		}
		yp = sc.y[:w.ylen]
		copy(yp, y)
	}
	xp := x
	if w.xlen > len(x) {
		if cap(sc.x) < w.xlen {
			sc.x = make([]float64, w.xlen)
		}
		xp = sc.x[:w.xlen]
		n := copy(xp, x)
		clear(xp[n:]) // pooled scratch: the pad region must be zero each call
	}
	w.eng.run(yp, xp)
	if w.ylen > len(y) {
		copy(y, yp[:len(y)])
	}
	w.pads.Put(sc)
	return nil
}

// wideCSR fuses k vectors over a CSR stream: MultiVec's loop nest
// (csrMultiRows) over all rows, at either index width.
type wideCSR[I matrix.Index] struct {
	m  *matrix.CSR[I]
	nv int
}

func (e *wideCSR[I]) rPad() int { return e.m.R }
func (e *wideCSR[I]) cPad() int { return e.m.C }

func (e *wideCSR[I]) run(y, x []float64) { csrMultiRows(e.m, e.nv, y, x, 0, e.m.R) }

// wideBCSR fuses k vectors over register-blocked storage: the BCSR
// multi-RHS loop nest (bcsrMultiRows) over every block row, so its bits
// are csrMultiRows' on the same matrix at every width, and its width-1
// sweep is the scalar kernel's body.
type wideBCSR[I matrix.Index] struct {
	m  *matrix.BCSR[I]
	nv int
}

func (e *wideBCSR[I]) rPad() int { return e.m.R }
func (e *wideBCSR[I]) cPad() int { return bcsrColsPadded(e.m) }

func (e *wideBCSR[I]) run(y, x []float64) { bcsrMultiRows(e.m, e.nv, y, x, 0, e.m.BlockRows) }

// wideBCOO fuses k vectors over block-coordinate storage: one flat pass
// over the tiles, accumulating each tile row locally before the add.
type wideBCOO[I matrix.Index] struct {
	m  *matrix.BCOO[I]
	nv int
	rp int
	cp int
}

func newWideBCOO[I matrix.Index](m *matrix.BCOO[I], nv int) *wideBCOO[I] {
	return &wideBCOO[I]{
		m: m, nv: nv,
		rp: (m.R + m.Shape.R - 1) / m.Shape.R * m.Shape.R,
		cp: (m.C + m.Shape.C - 1) / m.Shape.C * m.Shape.C,
	}
}

func (e *wideBCOO[I]) rPad() int { return e.rp }
func (e *wideBCOO[I]) cPad() int { return e.cp }

func (e *wideBCOO[I]) run(y, x []float64) {
	m, nv := e.m, e.nv
	R, C := m.Shape.R, m.Shape.C
	acc := make([]float64, nv)
	for t := range m.BCol {
		r0 := int(m.BRow[t]) * R * nv
		c0 := int(m.BCol[t]) * C * nv
		v0 := t * R * C
		for r := 0; r < R; r++ {
			for v := range acc {
				acc[v] = 0
			}
			for c := 0; c < C; c++ {
				val := m.Val[v0+r*C+c]
				xb := c0 + c*nv
				for v := 0; v < nv; v++ {
					acc[v] += float64(val * x[xb+v])
				}
			}
			yb := r0 + r*nv
			for v := 0; v < nv; v++ {
				y[yb+v] += acc[v]
			}
		}
	}
}

// wideCOO is the width-k triplet engine (encoding of last resort inside
// cache blocks, and the reference for the differential tests).
type wideCOO struct {
	m  *matrix.COO
	nv int
}

func (e *wideCOO) rPad() int { return e.m.R }
func (e *wideCOO) cPad() int { return e.m.C }

func (e *wideCOO) run(y, x []float64) {
	m, nv := e.m, e.nv
	for k := range m.Val {
		val := m.Val[k]
		yb := int(m.RowIdx[k]) * nv
		xb := int(m.ColIdx[k]) * nv
		for v := 0; v < nv; v++ {
			y[yb+v] += float64(val * x[xb+v])
		}
	}
}

// wideComposite runs a cache-blocked matrix width-k: each block's engine
// dispatches at its (RowOff, ColOff) origin within the shared padded
// blocks, in the same block order as the scalar composite engine.
type wideComposite struct {
	blocks []wideCompBlock
	rp, cp int
	nv     int
}

type wideCompBlock struct {
	rowOff, colOff int
	eng            wideEngine
}

func newWideComposite(m *matrix.CacheBlocked, nv int) (*wideComposite, error) {
	ce := &wideComposite{rp: m.R, cp: m.C, nv: nv}
	for i, b := range m.Blocks {
		eng, _, err := newWideEngine(b.Enc, nv)
		if err != nil {
			return nil, fmt.Errorf("kernel: cache block %d: %w", i, err)
		}
		ce.blocks = append(ce.blocks, wideCompBlock{b.RowOff, b.ColOff, eng})
		if n := b.RowOff + eng.rPad(); n > ce.rp {
			ce.rp = n
		}
		if n := b.ColOff + eng.cPad(); n > ce.cp {
			ce.cp = n
		}
	}
	return ce, nil
}

func (e *wideComposite) rPad() int { return e.rp }
func (e *wideComposite) cPad() int { return e.cp }

func (e *wideComposite) run(y, x []float64) {
	for _, b := range e.blocks {
		b.eng.run(y[b.rowOff*e.nv:], x[b.colOff*e.nv:])
	}
}

// wideSym adapts the parallel symmetric sweep (which already fuses any
// width with canonical, width-invariant bits) to the Wide interface.
type wideSym struct {
	sw *SymSweep
	nv int
}

func (w *wideSym) MulAddBlock(y, x []float64) error { return w.sw.MulAddWidth(y, x, w.nv) }
func (w *wideSym) Width() int                       { return w.nv }
func (w *wideSym) Name() string                     { return fmt.Sprintf("symcsr/wide%d", w.nv) }

// WideParallel is the width-k view of a row-partitioned parallel kernel:
// each thread part's encoding gets its own Wide kernel over the part's
// disjoint destination rows, so the parts of one fused sweep run
// concurrently with no synchronization — and, rows being disjoint, with
// bits identical to sequential execution.
type WideParallel struct {
	rows, cols int
	nv         int
	parts      []widePart
	name       string
}

type widePart struct {
	lo, hi int
	k      Wide
}

// NewWideParallel builds the width-k view of a parallel kernel from the
// parts it was assembled from.
func NewWideParallel(p *Parallel, width int) (*WideParallel, error) {
	if width < 1 {
		return nil, fmt.Errorf("kernel: need at least 1 vector, got %d", width)
	}
	src := p.Parts()
	if len(src) == 0 {
		return nil, fmt.Errorf("kernel: parallel kernel retains no parts")
	}
	wp := &WideParallel{
		rows: p.rows, cols: p.cols, nv: width,
		name: fmt.Sprintf("%s/wide%d", p.Name(), width),
	}
	for i, pt := range src {
		k, err := NewWide(pt.Enc, width)
		if err != nil {
			return nil, fmt.Errorf("kernel: part %d: %w", i, err)
		}
		wp.parts = append(wp.parts, widePart{lo: pt.Range.Lo, hi: pt.Range.Hi, k: k})
	}
	return wp, nil
}

// Width returns the fused vector count k.
func (p *WideParallel) Width() int { return p.nv }

// Name identifies the kernel variant.
func (p *WideParallel) Name() string { return p.name }

// MulAddBlock computes Y ← Y + A·X over interleaved width-k blocks,
// running the parts on their own goroutines.
//
//spmv:deterministic
func (p *WideParallel) MulAddBlock(y, x []float64) error {
	return p.MulAddBlockExec(y, x, nil)
}

// MulAddBlockExec is MulAddBlock with the per-part tasks scheduled through
// exec (nil runs them on the kernel's own goroutines). Scheduling never
// changes result bits: parts own disjoint destination rows.
func (p *WideParallel) MulAddBlockExec(y, x []float64, exec Exec) error {
	if len(y) != p.rows*p.nv || len(x) != p.cols*p.nv {
		return fmt.Errorf("%w: matrix %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, p.rows, p.cols, p.nv, len(y), len(x))
	}
	var mu sync.Mutex
	var firstErr error
	tasks := make([]func(), len(p.parts))
	for i := range p.parts {
		pt := p.parts[i]
		tasks[i] = func() {
			if err := pt.k.MulAddBlock(y[pt.lo*p.nv:pt.hi*p.nv], x); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}
	}
	if exec == nil {
		var wg sync.WaitGroup
		wg.Add(len(tasks))
		for _, t := range tasks {
			go func(t func()) {
				defer wg.Done()
				t()
			}(t)
		}
		wg.Wait()
	} else {
		exec(tasks)
	}
	return firstErr
}
