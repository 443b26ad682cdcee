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
// Every encoding has one loop nest, and the scalar Kernel Compile returns
// is its width-1 sweep. Lanes are independent and each lane accumulates
// in the same order at every width, so lane v of a width-k sweep is
// bitwise identical to the width-1 sweep — to the scalar kernel's MulAdd.
// CSR-backed Wide kernels run MultiVec's own loop nest (csrMultiRows), so
// at either index width their bits and their speed are MultiVec's;
// BCSR-backed ones run bcsrMultiRows, which sums each row in the same
// order and so returns the same bits.
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
// format internal/tune can produce is supported; the width-k view of a
// parallel kernel is Parallel.Wide.
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
	w, err := compileWide(fm, width)
	if err != nil {
		return nil, err
	}
	w.name = fmt.Sprintf("%s/wide%d", w.name, width)
	return w, nil
}

// wideEngine is the internal compute interface of every encoding: run
// operates on padded interleaved blocks of len >= rPad()*k and cPad()*k,
// with x's pad region zero on entry and y's ignored on exit. Padding lets
// the unrolled bodies run without edge-case branches, the same trick the
// paper's generated kernels use by rounding the vectors up to the tile
// size. (BCSR pads x only: its bodies hand a short last tile row to the
// generic body.)
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
		return nil, "", fmt.Errorf("kernel: no kernel for format %T", fm)
	}
}

// compileWide builds the width-nv serial kernel of an encoding, named
// after the encoding.
func compileWide(fm matrix.Format, nv int) (*wideSerial, error) {
	eng, name, err := newWideEngine(fm, nv)
	if err != nil {
		return nil, err
	}
	return newWideSerial(eng, fm, nv, name), nil
}

// wideSerial wraps a wideEngine into a Wide — and, at width 1, into the
// scalar Kernel. Pad buffers come from a pool, so concurrent sweeps (a
// serving layer's overlapping batches, or goroutines sharing one compiled
// kernel) never share scratch.
type wideSerial struct {
	eng        wideEngine
	fm         matrix.Format
	rows, cols int
	nv         int
	name       string
	ylen, xlen int // padded block lengths; == logical when no padding
	pads       sync.Pool
}

type wideScratch struct{ y, x []float64 }

func newWideSerial(eng wideEngine, fm matrix.Format, nv int, name string) *wideSerial {
	rows, cols := fm.Dims()
	return &wideSerial{
		eng: eng, fm: fm, rows: rows, cols: cols, nv: nv, name: name,
		ylen: eng.rPad() * nv, xlen: eng.cPad() * nv,
	}
}

func (w *wideSerial) Width() int   { return w.nv }
func (w *wideSerial) Name() string { return w.name }

// Format implements Kernel.
func (w *wideSerial) Format() matrix.Format { return w.fm }

// MulAdd implements Kernel; it is MulAddBlock, which at width 1 computes
// y ← y + A·x.
func (w *wideSerial) MulAdd(y, x []float64) error { return w.MulAddBlock(y, x) }

func (w *wideSerial) MulAddBlock(y, x []float64) error {
	if len(y) != w.rows*w.nv || len(x) != w.cols*w.nv {
		return fmt.Errorf("%w: matrix %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, w.rows, w.cols, w.nv, len(y), len(x))
	}
	w.sweep(y, x)
	return nil
}

// sweep runs the engine over y and x, each padded from pooled scratch
// only when it is shorter than the engine's extent. A parallel kernel
// hands its parts an x it already padded and its own rows of y.
func (w *wideSerial) sweep(y, x []float64) {
	if w.ylen <= len(y) && w.xlen <= len(x) {
		w.eng.run(y, x)
		return
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
// are csrMultiRows' on the same matrix at every width.
type wideBCSR[I matrix.Index] struct {
	m  *matrix.BCSR[I]
	nv int
}

func (e *wideBCSR[I]) rPad() int { return e.m.R }
func (e *wideBCSR[I]) cPad() int { return bcsrColsPadded(e.m) }

func (e *wideBCSR[I]) run(y, x []float64) { bcsrMultiRows(e.m, e.nv, y, x, 0, e.m.BlockRows) }

// wideBCOO fuses k vectors over block-coordinate storage: the BCOO loop
// nest (bcooMulti), one flat pass over the tiles. Both vectors are padded
// to whole tiles.
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

func (e *wideBCOO[I]) run(y, x []float64) { bcooMulti(e.m, e.nv, y, x) }

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

// wideComposite runs a cache-blocked matrix: each block's engine
// dispatches, in block order, at its (RowOff, ColOff) origin within the
// shared padded blocks.
//
// Tiles whose padded extent spills past their logical edge write only
// zero-fill contributions (y += 0·x) into neighbouring rows, which is
// arithmetically harmless. (The one caveat: if x contains Inf/NaN in a
// spill column, 0·x poisons the sum. SpMV over non-finite vectors is
// outside the study's scope.)
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
