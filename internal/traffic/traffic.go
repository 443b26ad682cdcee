// Package traffic derives the DRAM traffic and kernel-operation counts of
// an SpMV over any encoded matrix — the executable form of the analysis the
// paper performs by hand in §5.1 ("the Epidemiology matrix has a flop:byte
// ratio of about 0.11") and §6.1.
//
// Traffic has three components:
//
//   - Matrix stream: the encoded structure (values, indices, pointers) is
//     read exactly once, in order — pure compulsory traffic equal to the
//     format's footprint. This is the component the paper's data-structure
//     optimizations attack.
//
//   - Source vector: gathers with reuse. Modeled with a working-set window
//     scan: rows are consumed in order while the set of distinct source
//     lines grows; when it exceeds the cache capacity available for the
//     source vector, the window closes (its lines are charged to DRAM) and
//     a fresh window opens. Within a window everything fits and reuse is
//     free; across windows nothing survives — an LRU-like bound that is
//     exact for the two extremes the paper analyzes (working set fits ⇒
//     compulsory only; cyclic over-capacity scatter ⇒ thrash) and
//     conservative in between.
//
//   - Destination vector: one write-allocate fill plus one writeback per
//     destination line (16 bytes per element on the cache-based systems);
//     the tuner's destination-line budget keeps y resident across the
//     column blocks of a row band, so revisits are free.
//
// Kernel-operation counts (tiles processed and row-loop trips) feed the
// instruction-throughput term of the time model, which is how short-row
// matrices (webbase, Economics, Circuit) lose performance even when their
// bandwidth demand is modest.
package traffic

import (
	"fmt"

	"repro/internal/matrix"
)

// Options configures the analysis for one thread's cache share.
type Options struct {
	// LineBytes is the DRAM/cache transfer granularity (64 on x86/Niagara
	// L2, 128 on Cell DMA).
	LineBytes int
	// SourceCapacityLines is the number of cache lines available to hold
	// source-vector data for this thread (its share of the cache hierarchy
	// times a utilization factor). <= 0 means unbounded (everything fits).
	SourceCapacityLines int
	// DenseSourceBlocks models the Cell implementation (§4.4): each cache
	// block DMAs its entire column span of x into the local store, touched
	// or not, so source traffic is the dense span size rather than the
	// touched lines.
	DenseSourceBlocks bool
}

// Summary is the traffic and operation-count result for one encoding.
type Summary struct {
	// DRAM bytes.
	MatrixBytes int64 // streamed structure (== footprint)
	SourceBytes int64 // x gather fills
	DestBytes   int64 // y fill + writeback
	// Operation counts.
	Flops       int64 // useful flops: 2 per logical nonzero
	StoredFlops int64 // executed flops: 2 per stored value (incl. fill)
	Tiles       int64 // inner-loop bodies executed (== nnz for CSR)
	LoopRows    int64 // outer-loop trips (0 for BCOO's flat loop)
	Windows     int64 // working-set windows opened for the source vector
}

// TotalBytes returns the full DRAM demand.
func (s Summary) TotalBytes() int64 { return s.MatrixBytes + s.SourceBytes + s.DestBytes }

// FlopByte returns useful flops per DRAM byte, the paper's central metric
// (upper bound 0.25 for 16-byte-per-nonzero CSR).
func (s Summary) FlopByte() float64 {
	t := s.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(s.Flops) / float64(t)
}

// SustainedRate returns the bandwidth-bound sweep rate (sweeps/second) for
// a node sustaining bwGBs GB/s of DRAM bandwidth against this sweep's
// traffic — the §5.1 bound turned into a serving-capacity model: a
// bandwidth-bound node can complete at most BW / bytes-per-sweep sweeps
// per second.
func (s Summary) SustainedRate(bwGBs float64) float64 {
	return SustainedSweepRate(bwGBs, s.TotalBytes())
}

// SustainedSweepRate returns the bandwidth-bound rate (sweeps/second) of a
// node sustaining bwGBs GB/s against a sweep moving the given DRAM bytes.
// The shard coordinator's scaling model uses it with per-band sweep bytes:
// a K-shard cluster's aggregate rate is bounded by its most-loaded member,
// BW / max-band-bytes.
func SustainedSweepRate(bwGBs float64, bytes int64) float64 {
	if bytes <= 0 || bwGBs <= 0 {
		return 0
	}
	return bwGBs * 1e9 / float64(bytes)
}

// MultiRHS returns the traffic of the same sweep fused over k right-hand
// sides (§2.1's multiple-vectors optimization): the matrix stream is paid
// once while vector traffic, flops and tile work scale by k. SavedBytes
// against k independent sweeps is (k-1)*MatrixBytes.
func (s Summary) MultiRHS(k int) Summary {
	if k < 1 {
		k = 1
	}
	out := s
	out.SourceBytes *= int64(k)
	out.DestBytes *= int64(k)
	out.Flops *= int64(k)
	out.StoredFlops *= int64(k)
	out.Tiles *= int64(k)
	return out
}

// Add accumulates b into s.
func (s *Summary) Add(b Summary) {
	s.MatrixBytes += b.MatrixBytes
	s.SourceBytes += b.SourceBytes
	s.DestBytes += b.DestBytes
	s.Flops += b.Flops
	s.StoredFlops += b.StoredFlops
	s.Tiles += b.Tiles
	s.LoopRows += b.LoopRows
	s.Windows += b.Windows
}

// Analyze computes the traffic summary for an encoded matrix processed by
// one thread with the given cache share.
func Analyze(enc matrix.Format, opt Options) (Summary, error) {
	if opt.LineBytes <= 0 {
		opt.LineBytes = 64
	}
	switch m := enc.(type) {
	case *matrix.COO:
		return analyzeCOO(m, opt), nil
	case *matrix.CSR16:
		return analyzeCSR(m, opt), nil
	case *matrix.CSR32:
		return analyzeCSR(m, opt), nil
	case *matrix.BCSR[uint16]:
		return analyzeBCSR(m, opt), nil
	case *matrix.BCSR[uint32]:
		return analyzeBCSR(m, opt), nil
	case *matrix.BCOO[uint16]:
		return analyzeBCOO(m, opt), nil
	case *matrix.BCOO[uint32]:
		return analyzeBCOO(m, opt), nil
	case *matrix.SymCSR:
		return analyzeSym(m, opt), nil
	case *matrix.CacheBlocked:
		return analyzeCacheBlocked(m, opt)
	default:
		return Summary{}, fmt.Errorf("traffic: no analysis for format %T", enc)
	}
}

// window tracks the distinct source lines of the current working-set
// window using a generation-stamped table (O(1) reset between windows).
type window struct {
	lineElems int
	capacity  int   // max distinct lines per window; <=0 unbounded
	gen       int32 // current window generation
	stamp     []int32
	count     int   // distinct lines in current window
	bytes     int64 // total source bytes charged
	lineBytes int
	windows   int64
}

func newWindow(cols int, opt Options) *window {
	le := opt.LineBytes / 8
	if le < 1 {
		le = 1
	}
	return &window{
		lineElems: le,
		capacity:  opt.SourceCapacityLines,
		gen:       1,
		stamp:     make([]int32, (cols+le-1)/le+1),
		lineBytes: opt.LineBytes,
		windows:   1,
	}
}

// touch records access to source element col.
func (w *window) touch(col int) {
	line := col / w.lineElems
	if w.stamp[line] == w.gen {
		return // reuse within the window: free
	}
	if w.capacity > 0 && w.count >= w.capacity {
		// Window full: close it and open a fresh one.
		w.gen++
		w.count = 0
		w.windows++
	}
	w.stamp[line] = w.gen
	w.count++
	w.bytes += int64(w.lineBytes)
}

// touchRange records access to source elements [c0, c1).
func (w *window) touchRange(c0, c1 int) {
	if c1 <= c0 {
		return
	}
	first := c0 / w.lineElems
	last := (c1 - 1) / w.lineElems
	for line := first; line <= last; line++ {
		w.touch(line * w.lineElems)
	}
}

// destBytes charges 16 bytes per destination element line-rounded: one
// write-allocate fill plus one writeback per line of y.
func destBytes(rows int, opt Options) int64 {
	if rows <= 0 {
		return 0
	}
	le := opt.LineBytes / 8
	if le < 1 {
		le = 1
	}
	lines := int64((rows + le - 1) / le)
	return 2 * lines * int64(opt.LineBytes)
}

func analyzeCOO(m *matrix.COO, opt Options) Summary {
	w := newWindow(m.C, opt)
	for k := range m.Val {
		w.touch(int(m.ColIdx[k]))
	}
	return Summary{
		MatrixBytes: m.FootprintBytes(),
		SourceBytes: w.bytes,
		DestBytes:   destBytes(m.R, opt),
		Flops:       2 * m.NNZ(),
		StoredFlops: 2 * m.Stored(),
		Tiles:       m.NNZ(),
		LoopRows:    0, // flat loop
		Windows:     w.windows,
	}
}

func analyzeCSR[I matrix.Index](m *matrix.CSR[I], opt Options) Summary {
	w := newWindow(m.C, opt)
	for i := 0; i < m.R; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			w.touch(int(m.Col[k]))
		}
	}
	return Summary{
		MatrixBytes: m.FootprintBytes(),
		SourceBytes: w.bytes,
		DestBytes:   destBytes(m.R, opt),
		Flops:       2 * m.NNZ(),
		StoredFlops: 2 * m.Stored(),
		Tiles:       m.NNZ(),
		LoopRows:    int64(m.R),
		Windows:     w.windows,
	}
}

// analyzeSym models the symmetric kernel over upper-triangle storage:
// the matrix stream is the halved footprint (the point of the format),
// the source vector is touched at both the stored column and — for rows
// with off-diagonal entries — the row's own x element (the scatter
// multiplier), and the destination is charged twice the streaming cost,
// since the scatter turns y from a write-once stream into a
// read-modify-write target revisited by the reduction.
func analyzeSym(m *matrix.SymCSR, opt Options) Summary {
	w := newWindow(m.N, opt)
	for i := 0; i < m.N; i++ {
		offDiag := false
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			w.touch(int(m.Col[k]))
			if int(m.Col[k]) != i {
				offDiag = true
			}
		}
		if offDiag {
			w.touch(i)
		}
	}
	return Summary{
		MatrixBytes: m.FootprintBytes(),
		SourceBytes: w.bytes,
		DestBytes:   2 * destBytes(m.N, opt),
		Flops:       2 * m.NNZ(),
		// The symmetric kernel executes one MAC per stored entry for the
		// row sum plus one per off-diagonal scatter — nnz total, so no
		// flop is wasted on fill.
		StoredFlops: 2 * m.NNZ(),
		Tiles:       m.Stored(),
		LoopRows:    int64(m.N),
		Windows:     w.windows,
	}
}

func analyzeBCSR[I matrix.Index](m *matrix.BCSR[I], opt Options) Summary {
	w := newWindow(m.C+m.Shape.C, opt)
	for br := 0; br < m.BlockRows; br++ {
		for t := m.RowPtr[br]; t < m.RowPtr[br+1]; t++ {
			c0 := int(m.BCol[t]) * m.Shape.C
			w.touchRange(c0, c0+m.Shape.C)
		}
	}
	return Summary{
		MatrixBytes: m.FootprintBytes(),
		SourceBytes: w.bytes,
		DestBytes:   destBytes(m.R, opt),
		Flops:       2 * m.NNZ(),
		StoredFlops: 2 * m.Stored(),
		Tiles:       m.Blocks(),
		LoopRows:    int64(m.BlockRows),
		Windows:     w.windows,
	}
}

func analyzeBCOO[I matrix.Index](m *matrix.BCOO[I], opt Options) Summary {
	w := newWindow(m.C+m.Shape.C, opt)
	for t := range m.BCol {
		c0 := int(m.BCol[t]) * m.Shape.C
		w.touchRange(c0, c0+m.Shape.C)
	}
	return Summary{
		MatrixBytes: m.FootprintBytes(),
		SourceBytes: w.bytes,
		DestBytes:   destBytes(m.R, opt),
		Flops:       2 * m.NNZ(),
		StoredFlops: 2 * m.Stored(),
		Tiles:       m.Blocks(),
		LoopRows:    0, // flat loop over tiles
		Windows:     w.windows,
	}
}

func analyzeCacheBlocked(m *matrix.CacheBlocked, opt Options) (Summary, error) {
	var total Summary
	// Destination traffic is charged per row band once (the tuner's
	// destination budget keeps y resident across a band's column blocks),
	// so track distinct row extents rather than per-block rows.
	bandSeen := map[[2]int]bool{}
	for _, b := range m.Blocks {
		if opt.DenseSourceBlocks {
			// Cell mode: the whole x span is DMA'd for each block.
			sub := Summary{
				MatrixBytes: b.Enc.FootprintBytes(),
				SourceBytes: int64(b.Cols) * 8,
				Flops:       2 * b.Enc.NNZ(),
				StoredFlops: 2 * b.Enc.Stored(),
			}
			ops, err := Analyze(b.Enc, Options{LineBytes: opt.LineBytes})
			if err != nil {
				return Summary{}, err
			}
			sub.Tiles, sub.LoopRows, sub.Windows = ops.Tiles, ops.LoopRows, 1
			total.Add(sub)
		} else {
			sub, err := Analyze(b.Enc, opt)
			if err != nil {
				return Summary{}, err
			}
			sub.DestBytes = 0 // charged per band below
			total.Add(sub)
		}
		band := [2]int{b.RowOff, b.Rows}
		if !bandSeen[band] {
			bandSeen[band] = true
			total.DestBytes += destBytes(b.Rows, opt)
		}
	}
	// Per-block descriptors stream too.
	total.MatrixBytes += int64(len(m.Blocks)) * 32
	return total, nil
}
