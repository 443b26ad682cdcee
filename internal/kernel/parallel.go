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

// Parallel is a row-partitioned multithreaded SpMV kernel over interleaved
// width-k blocks: each part's encoding runs its own engine, on its own
// goroutine (standing in for a pinned Pthread), over the part's disjoint
// destination rows, so the only shared state is the read-only source.
// NewParallel builds the width-1 kernel, whose MulAdd is y ← y + A·x;
// Wide(k) is the width-k view of the same parts. Rows being disjoint, the bits are those
// of running the parts one after another, at every width and under any
// scheduling. Concurrent calls are safe: the padded source a call needs
// comes from pooled scratch, as does each part's padded destination.
type Parallel struct {
	rows, cols int
	nv         int
	parts      []widePart
	src        []Part // the encoded parts as assembled
	xlen       int    // padded x block length: the widest part's cPad·nv
	pads       sync.Pool
	fm         *partsFormat
	name       string
}

// widePart is one part's row range and its width-nv kernel.
type widePart struct {
	lo, hi int
	k      *wideSerial
}

// NewParallel assembles a parallel kernel from encoded parts. The parts
// must tile the row space in order.
func NewParallel(rows, cols int, parts []Part) (*Parallel, error) {
	at := 0
	encs := make([]matrix.Format, len(parts))
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
		encs[i] = pt.Enc
	}
	if at != rows {
		return nil, fmt.Errorf("kernel: parts end at row %d, want %d", at, rows)
	}
	p := &Parallel{
		rows: rows, cols: cols,
		src: append([]Part(nil), parts...),
		fm: &partsFormat{rows: rows, cols: cols, encs: encs,
			name: fmt.Sprintf("parallel[%d]", len(parts))},
	}
	if err := p.compile(1); err != nil {
		return nil, err
	}
	return p, nil
}

// compile builds the parts' width-nv kernels.
func (p *Parallel) compile(nv int) error {
	p.nv, p.name, p.xlen = nv, p.fm.name, p.cols*nv
	if nv > 1 {
		p.name = fmt.Sprintf("%s/wide%d", p.name, nv)
	}
	p.parts = make([]widePart, len(p.src))
	for i, pt := range p.src {
		k, err := compileWide(pt.Enc, nv)
		if err != nil {
			return fmt.Errorf("kernel: part %d: %w", i, err)
		}
		p.xlen = max(p.xlen, k.xlen)
		p.parts[i] = widePart{lo: pt.Range.Lo, hi: pt.Range.Hi, k: k}
	}
	return nil
}

// Wide returns the width-k view of the kernel: the same parts, each with
// its width-k engine.
func (p *Parallel) Wide(width int) (*Parallel, error) {
	if width < 1 {
		return nil, fmt.Errorf("kernel: need at least 1 vector, got %d", width)
	}
	if width == p.nv {
		return p, nil
	}
	w := &Parallel{rows: p.rows, cols: p.cols, src: p.src, fm: p.fm}
	if err := w.compile(width); err != nil {
		return nil, err
	}
	return w, nil
}

// Parts returns the encoded row parts the kernel was assembled from, in
// row order.
func (p *Parallel) Parts() []Part { return p.src }

// Threads returns the number of parts (one goroutine each).
func (p *Parallel) Threads() int { return len(p.parts) }

// Width returns the fused vector count k.
func (p *Parallel) Width() int { return p.nv }

// MulAdd implements Kernel; it is MulAddBlock, which at width 1 computes
// y ← y + A·x.
//
//spmv:deterministic
func (p *Parallel) MulAdd(y, x []float64) error { return p.MulAddBlockExec(y, x, nil) }

// MulAddBlock computes Y ← Y + A·X over interleaved width-k blocks,
// running the parts on their own goroutines.
//
//spmv:deterministic
func (p *Parallel) MulAddBlock(y, x []float64) error { return p.MulAddBlockExec(y, x, nil) }

// MulAddBlockExec is MulAddBlock with the per-part tasks scheduled through
// exec (nil runs them on the kernel's own goroutines). Scheduling never
// changes result bits: parts own disjoint destination rows, so each row's
// reduction order is fixed — the bitwise thread-invariance contract
// spmv-vet's detpure analyzer guards.
//
//spmv:deterministic
func (p *Parallel) MulAddBlockExec(y, x []float64, exec Exec) error {
	if len(y) != p.rows*p.nv || len(x) != p.cols*p.nv {
		return fmt.Errorf("%w: matrix %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, p.rows, p.cols, p.nv, len(y), len(x))
	}
	// Pad x once for every part. The scratch is this view's alone and
	// only its first len(x) elements are ever written, so its zero tail
	// needs no clearing.
	xp := x
	if p.xlen > len(x) {
		sc, _ := p.pads.Get().(*[]float64)
		if sc == nil {
			sc = new([]float64)
			*sc = make([]float64, p.xlen)
		}
		defer p.pads.Put(sc)
		xp = *sc
		copy(xp, x)
	}
	if exec == nil {
		var wg sync.WaitGroup
		wg.Add(len(p.parts))
		for i := range p.parts {
			go func(pt *widePart) {
				defer wg.Done()
				pt.k.sweep(y[pt.lo*p.nv:pt.hi*p.nv], xp)
			}(&p.parts[i])
		}
		wg.Wait()
		return nil
	}
	tasks := make([]func(), len(p.parts))
	for i := range p.parts {
		pt := &p.parts[i]
		tasks[i] = func() { pt.k.sweep(y[pt.lo*p.nv:pt.hi*p.nv], xp) }
	}
	exec(tasks)
	return nil
}

// Format implements Kernel: a Format whose accounting is the sum of the
// parts' own encodings.
func (p *Parallel) Format() matrix.Format { return p.fm }

// Name implements Kernel.
func (p *Parallel) Name() string { return p.name }

// partsFormat adapts a kernel assembled from separately encoded parts to
// the matrix.Format interface, so footprint accounting can treat threaded
// matrices uniformly.
type partsFormat struct {
	rows, cols int
	name       string
	encs       []matrix.Format
}

func (f *partsFormat) Dims() (int, int)   { return f.rows, f.cols }
func (f *partsFormat) FormatName() string { return f.name }

func (f *partsFormat) NNZ() int64 { return f.sum(matrix.Format.NNZ) }

func (f *partsFormat) Stored() int64 { return f.sum(matrix.Format.Stored) }

func (f *partsFormat) FootprintBytes() int64 { return f.sum(matrix.Format.FootprintBytes) }

func (f *partsFormat) sum(of func(matrix.Format) int64) int64 {
	var s int64
	for _, e := range f.encs {
		s += of(e)
	}
	return s
}
