// Cross-format differential property test: every compile path — CSR (both
// index widths), register-blocked BCSR, block-coordinate BCOO, symmetric
// SymCSR, cache-blocked composites, and row-parallel compositions of all
// of them — must agree with an independent naive triplet reference, at
// every multi-RHS width and thread count the serving layer exercises.
//
// Agreement comes in two strengths:
//
//   - bitwise for the deterministic family — serial/parallel CSR at either
//     index width, Multi's views and the wide kernels over CSR, and BCSR in
//     every tile shape: these all add each row's rounded products strictly
//     in column order into one accumulator that starts at +0, so their
//     bits are the reference's bits (BCSR's fill adds exact zeros for
//     finite x) — the property the serving layer's bit-preserving
//     promotions and its register-blocked encodings stand on;
//   - ULP-bounded for reassociating paths: BCOO adds each tile's partial
//     row sums into y, a cache-blocked composite adds each cache block's
//     partial into y, and symmetric storage scatters the transposed half
//     in segment order, so none of them sums a row as CSR does:
//     |y - ref| <= ~nnz_row * eps * sum|a_ij x_j| per row.
//
// Additionally every wide kernel must be width-invariant: lane v of a
// width-k sweep reproduces the width-1 sweep bit for bit.
//
// The serving layer adds the wire codec as one more axis of the bitwise
// contract: a Mul answers the same bits in-process, over the JSON tier
// and over binary frames, for local and for HTTP-sharded matrices. And a
// solver session adds the topology: a CG trajectory is the same bits on one
// node and on K members behind either transport's session sweep.
package spmv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/matrix/delta"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/solve"
)

// diffWidths are the fused multi-RHS widths the harness checks.
var diffWidths = []int{1, 4, 8}

// diffThreads are the parallel widths the harness checks.
var diffThreads = []int{1, 2, 4}

// diffCase is one generated matrix with its per-lane inputs and
// references.
type diffCase struct {
	name string
	m    *spmv.Matrix
	coo  *matrix.COO
	sym  bool // numerically symmetric (safe for CompileSymmetric)
}

// diffCases builds the structural zoo: varied density, banded, symmetric,
// empty rows and columns, and a near-empty matrix.
func diffCases(t *testing.T) []diffCase {
	t.Helper()
	n := 240
	nnz := 3200
	if testing.Short() {
		n, nnz = 120, 1200
	}
	cases := []diffCase{
		{name: "random-sparse", coo: randomCOO(t, n, n-17, nnz/4, 1, false)},
		{name: "random-dense", coo: randomCOO(t, n/2, n/2, nnz, 2, false)},
		{name: "banded", coo: bandedCOO(t, n, 6, 3)},
		{name: "empty-rows-cols", coo: stripedCOO(t, n, n, nnz/4, 4)},
		{name: "duplicates", coo: duplicateCOO(t, n/2, 5)},
		{name: "near-empty", coo: sparseDiagCOO(t, n)},
	}
	for i := range cases {
		cases[i].m = cooToMatrix(t, cases[i].coo)
	}
	// Symmetric twin of the banded case: exactly symmetric by
	// construction, so SymCSR compiles.
	symM, err := spmv.Symmetrize(cooToMatrix(t, bandedCOO(t, n, 5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	symCOO := matrix.NewCOO(n, n)
	symM.Entries(func(i, j int, v float64) { _ = symCOO.Append(i, j, v) })
	cases = append(cases, diffCase{name: "symmetric", m: symM, coo: symCOO, sym: true})
	return cases
}

func randomCOO(t *testing.T, rows, cols, nnz int, seed int64, posOnly bool) *matrix.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		v := rng.NormFloat64()
		if posOnly {
			v = math.Abs(v) + 0.1
		}
		if err := coo.Append(rng.Intn(rows), rng.Intn(cols), v); err != nil {
			t.Fatal(err)
		}
	}
	return coo
}

func bandedCOO(t *testing.T, n, halfBW int, seed int64) *matrix.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := i - halfBW; j <= i+halfBW; j++ {
			if j >= 0 && j < n {
				if err := coo.Append(i, j, rng.NormFloat64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return coo
}

// stripedCOO populates only every strideth row and column, leaving the
// rest empty — the empty-row/empty-column stress BCOO exists for.
func stripedCOO(t *testing.T, rows, cols, nnz int, stride int) *matrix.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	coo := matrix.NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		i := (rng.Intn(rows / stride)) * stride
		j := (rng.Intn(cols / stride)) * stride
		if err := coo.Append(i, j, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	return coo
}

// duplicateCOO repeats every coordinate several times; compile-time
// canonicalization must sum them in insertion order on every path.
func duplicateCOO(t *testing.T, n int, seed int64) *matrix.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := matrix.NewCOO(n, n)
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		for d := 0; d < 3; d++ {
			if err := coo.Append(i, j, rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return coo
}

func sparseDiagCOO(t *testing.T, n int) *matrix.COO {
	t.Helper()
	coo := matrix.NewCOO(n, n)
	for i := 0; i < n; i += 37 {
		if err := coo.Append(i, i, float64(i+1)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	return coo
}

func cooToMatrix(t *testing.T, coo *matrix.COO) *spmv.Matrix {
	t.Helper()
	m := spmv.NewMatrix(coo.R, coo.C)
	for k := range coo.Val {
		if err := m.Set(int(coo.RowIdx[k]), int(coo.ColIdx[k]), coo.Val[k]); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// refMul is the independent naive triplet reference: canonicalize the
// triplets exactly as compile time does (stable row-major/column sort,
// duplicates summed in insertion order), then accumulate each row's sum
// strictly in column order. It returns y plus a per-row error tolerance
// ~4*(nnz_row+4)*eps*sum|a_ij x_j| for the reassociating paths.
func refMul(coo *matrix.COO, x []float64) (y, tol []float64) {
	type ent struct {
		i, j int
		v    float64
	}
	ents := make([]ent, len(coo.Val))
	for k := range coo.Val {
		ents[k] = ent{int(coo.RowIdx[k]), int(coo.ColIdx[k]), coo.Val[k]}
	}
	sort.SliceStable(ents, func(a, b int) bool {
		if ents[a].i != ents[b].i {
			return ents[a].i < ents[b].i
		}
		return ents[a].j < ents[b].j
	})
	// Sum duplicates in their (preserved) insertion order.
	canon := ents[:0]
	for _, e := range ents {
		if n := len(canon); n > 0 && canon[n-1].i == e.i && canon[n-1].j == e.j {
			canon[n-1].v += e.v
			continue
		}
		canon = append(canon, e)
	}
	y = make([]float64, coo.R)
	tol = make([]float64, coo.R)
	abs := make([]float64, coo.R)
	rowNNZ := make([]int, coo.R)
	for _, e := range canon {
		t := float64(e.v * x[e.j])
		y[e.i] += t
		abs[e.i] += math.Abs(t)
		rowNNZ[e.i]++
	}
	const eps = 2.220446049250313e-16
	for i := range tol {
		tol[i] = 4 * float64(rowNNZ[i]+4) * eps * abs[i]
	}
	return y, tol
}

func laneVectors(cols, width int, seed int64) [][]float64 {
	xs := make([][]float64, width)
	for v := range xs {
		rng := rand.New(rand.NewSource(seed + int64(v)))
		xs[v] = make([]float64, cols)
		for i := range xs[v] {
			xs[v][i] = rng.NormFloat64()
		}
	}
	return xs
}

// checkBitwise asserts got matches want bit for bit.
func checkBitwise(t *testing.T, path string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", path, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %x, want %x (not bitwise identical)",
				path, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkBounded asserts got matches want within the per-row reassociation
// tolerance.
func checkBounded(t *testing.T, path string, got, want, tol []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", path, len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol[i] {
			t.Fatalf("%s: y[%d] off by %g (tolerance %g)", path, i, d, tol[i])
		}
	}
}

// wideLanes runs a wide kernel over interleaved lane vectors and returns
// the de-interleaved per-lane results.
func wideLanes(t *testing.T, w kernel.Wide, rows int, xs [][]float64) [][]float64 {
	t.Helper()
	xBlock, err := spmv.Interleave(xs)
	if err != nil {
		t.Fatal(err)
	}
	yBlock := make([]float64, rows*len(xs))
	if err := w.MulAddBlock(yBlock, xBlock); err != nil {
		t.Fatal(err)
	}
	ys, err := spmv.Deinterleave(yBlock, len(xs))
	if err != nil {
		t.Fatal(err)
	}
	return ys
}

// TestDifferentialCSRFamily checks the deterministic family bitwise:
// serial and parallel CSR at both index widths, the CSR multi-RHS views,
// and the wide kernels over CSR — across widths 1-8 and threads 1/2/4.
func TestDifferentialCSRFamily(t *testing.T) {
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, cols := tc.m.Dims()
			rows, _ := tc.m.Dims()
			xs := laneVectors(cols, 8, 77)
			refs := make([][]float64, len(xs))
			for v := range xs {
				refs[v], _ = refMul(tc.coo, xs[v])
			}

			opts16 := spmv.NaiveOptions()
			opts16.ReduceIndices = true
			for _, threads := range diffThreads {
				for optName, opt := range map[string]spmv.TuneOptions{"csr32": spmv.NaiveOptions(), "csr16": opts16} {
					op, err := spmv.CompileParallel(tc.m, opt, threads, 1)
					if err != nil {
						t.Fatal(err)
					}
					path := fmt.Sprintf("%s/threads=%d", optName, threads)
					y, err := op.Mul(xs[0])
					if err != nil {
						t.Fatal(err)
					}
					checkBitwise(t, path+"/mul", y, refs[0])

					// Width 5 has no unrolled body: it takes the CSR multi-RHS
					// loop's generic default case, at both index widths.
					for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
						// Views over the canonical CSR32 (Multi).
						mo, err := op.Multi(width)
						if err != nil {
							t.Fatal(err)
						}
						ys, err := mo.MulAll(xs[:width])
						if err != nil {
							t.Fatal(err)
						}
						for v := range ys {
							checkBitwise(t, fmt.Sprintf("%s/multi%d/lane%d", path, width, v), ys[v], refs[v])
						}
						// Tuned wide views — over CSR encodings these must
						// reproduce the same bits (what lets registration
						// narrow indices without moving a served bit).
						wmo, err := op.WideMulti(width)
						if err != nil {
							t.Fatal(err)
						}
						wys, err := wmo.MulAll(xs[:width])
						if err != nil {
							t.Fatal(err)
						}
						for v := range wys {
							checkBitwise(t, fmt.Sprintf("%s/wide%d/lane%d", path, width, v), wys[v], refs[v])
						}
					}
				}
			}
			_ = rows
		})
	}
}

// blockedParallel row-partitions csr into threads nonzero-balanced parts,
// each register-blocked into shape at the given index width — a tuned
// parallel operator's parts, with the shape forced.
func blockedParallel(t *testing.T, csr *matrix.CSR32, shape matrix.BlockShape, bits16 bool, threads int) *kernel.Parallel {
	t.Helper()
	part, err := partition.ByNNZ(csr.RowPtr, threads)
	if err != nil {
		t.Fatal(err)
	}
	var parts []kernel.Part
	for _, r := range part.Ranges {
		sub := csr.Submatrix(r.Lo, r.Hi, 0, csr.C)
		var enc matrix.Format
		if bits16 {
			enc, err = matrix.NewBCSR[uint16](sub, shape)
		} else {
			enc, err = matrix.NewBCSR[uint32](sub, shape)
		}
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, kernel.Part{Range: r, Enc: enc})
	}
	p, err := kernel.NewParallel(csr.R, csr.C, parts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDifferentialBlockedFormats checks every register-blocked and
// block-coordinate compile path — all shapes × both index widths — plus
// their wide kernels. BCSR is bitwise against the reference (the CSR
// family's bits) through the scalar kernel and the wide kernels at widths
// 1-8, serial and row-partitioned over threads 1/2/4. BCOO is ULP-bounded
// against the reference and bitwise width-invariant (lane v of width k ==
// the width-1 sweep).
func TestDifferentialBlockedFormats(t *testing.T) {
	shapes := []matrix.BlockShape{{R: 1, C: 1}, {R: 1, C: 4}, {R: 2, C: 2}, {R: 4, C: 1}, {R: 4, C: 4}}
	if !testing.Short() {
		shapes = append(shapes, matrix.BlockShape{R: 1, C: 2}, matrix.BlockShape{R: 2, C: 1},
			matrix.BlockShape{R: 2, C: 4}, matrix.BlockShape{R: 4, C: 2})
	}
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			csr, err := matrix.NewCSR[uint32](tc.coo)
			if err != nil {
				t.Fatal(err)
			}
			xs := laneVectors(csr.C, 8, 99)
			refs := make([][]float64, len(xs))
			tols := make([][]float64, len(xs))
			for v := range xs {
				refs[v], tols[v] = refMul(tc.coo, xs[v])
			}

			var encs []matrix.Format
			for _, shape := range shapes {
				for _, bits16 := range []bool{false, true} {
					for _, threads := range diffThreads {
						p := blockedParallel(t, csr, shape, bits16, threads)
						path := fmt.Sprintf("bcsr%v/16=%v/threads=%d", shape, bits16, threads)
						y := make([]float64, csr.R)
						if err := p.MulAdd(y, xs[0]); err != nil {
							t.Fatal(err)
						}
						checkBitwise(t, path+"/muladd", y, refs[0])
						for width := 1; width <= 8; width++ {
							w, err := p.Wide(width)
							if err != nil {
								t.Fatal(err)
							}
							for v, y := range wideLanes(t, w, csr.R, xs[:width]) {
								checkBitwise(t, fmt.Sprintf("%s/wide%d/lane%d", path, width, v), y, refs[v])
							}
						}
					}
				}
				c16, err := matrix.NewBCOO[uint16](csr, shape)
				if err != nil {
					t.Fatal(err)
				}
				c32, err := matrix.NewBCOO[uint32](csr, shape)
				if err != nil {
					t.Fatal(err)
				}
				encs = append(encs, c16, c32)
			}
			for _, enc := range encs {
				k, err := kernel.Compile(enc)
				if err != nil {
					t.Fatal(err)
				}
				y := make([]float64, csr.R)
				if err := k.MulAdd(y, xs[0]); err != nil {
					t.Fatal(err)
				}
				checkBounded(t, k.Name()+"/muladd", y, refs[0], tols[0])

				base := make(map[int][]float64) // lane -> width-1 wide bits
				for _, width := range diffWidths {
					w, err := kernel.NewWide(enc, width)
					if err != nil {
						t.Fatal(err)
					}
					ys := wideLanes(t, w, csr.R, xs[:width])
					for v := range ys {
						checkBounded(t, fmt.Sprintf("%s/lane%d", w.Name(), v), ys[v], refs[v], tols[v])
						if width == 1 {
							base[v] = ys[v]
						}
					}
					// Width invariance: lane 0 bits never depend on width,
					// and the scalar kernel is the width-1 sweep.
					checkBitwise(t, w.Name()+"/lane0-width-invariance", ys[0], base[0])
					if width == 1 {
						checkBitwise(t, k.Name()+"/muladd-is-width1", y, base[0])
					}
				}
			}
		})
	}
}

// TestDifferentialTunedAndCacheBlocked checks the full §4.2 tuner output
// (register + cache + TLB blocking, serial and parallel) and a forced
// cache-blocked encoding, at every width: ULP-bounded against the
// reference, and one operator, one answer — lane v of every WideMulti
// width is bitwise op.Mul of vector v.
func TestDifferentialTunedAndCacheBlocked(t *testing.T) {
	small := spmv.DefaultTuneOptions()
	small.CacheBudgetBytes = 1 << 12 // force cache blocking on tiny matrices
	small.TLBEntries = 8
	configs := map[string]spmv.TuneOptions{
		"tuned-default":      spmv.DefaultTuneOptions(),
		"tuned-cacheblocked": small,
	}
	for _, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, cols := tc.m.Dims()
			xs := laneVectors(cols, 8, 123)
			refs := make([][]float64, len(xs))
			tols := make([][]float64, len(xs))
			for v := range xs {
				refs[v], tols[v] = refMul(tc.coo, xs[v])
			}
			for name, opt := range configs {
				for _, threads := range diffThreads {
					op, err := spmv.CompileParallel(tc.m, opt, threads, 1)
					if err != nil {
						t.Fatal(err)
					}
					path := fmt.Sprintf("%s/threads=%d", name, threads)
					muls := make([][]float64, len(xs))
					for v := range xs {
						if muls[v], err = op.Mul(xs[v]); err != nil {
							t.Fatal(err)
						}
					}
					checkBounded(t, path+"/mul", muls[0], refs[0], tols[0])
					for _, width := range diffWidths {
						mo, err := op.WideMulti(width)
						if err != nil {
							t.Fatal(err)
						}
						ys, err := mo.MulAll(xs[:width])
						if err != nil {
							t.Fatal(err)
						}
						for v := range ys {
							lane := fmt.Sprintf("%s/wide%d/lane%d", path, width, v)
							checkBounded(t, lane, ys[v], refs[v], tols[v])
							checkBitwise(t, lane+"/is-mul", ys[v], muls[v])
						}
					}
				}
			}
		})
	}
}

// TestDifferentialSymmetric checks SymCSR: ULP-bounded against the
// reference, bitwise identical across thread counts, and bitwise
// width-invariant per lane — at widths 1/4/8 and threads 1/2/4.
func TestDifferentialSymmetric(t *testing.T) {
	var sym diffCase
	for _, tc := range diffCases(t) {
		if tc.sym {
			sym = tc
		}
	}
	if sym.m == nil {
		t.Fatal("no symmetric case generated")
	}
	rows, cols := sym.m.Dims()
	xs := laneVectors(cols, 8, 321)
	refs := make([][]float64, len(xs))
	tols := make([][]float64, len(xs))
	for v := range xs {
		refs[v], tols[v] = refMul(sym.coo, xs[v])
	}
	var baseline [][]float64 // [lane] width-1 single-thread bits
	for _, threads := range diffThreads {
		op, err := spmv.CompileSymmetricParallel(sym.m, threads)
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("symcsr/threads=%d", threads)
		for _, width := range diffWidths {
			mo, err := op.Multi(width)
			if err != nil {
				t.Fatal(err)
			}
			ys, err := mo.MulAll(xs[:width])
			if err != nil {
				t.Fatal(err)
			}
			for v := range ys {
				checkBounded(t, fmt.Sprintf("%s/width%d/lane%d", path, width, v), ys[v], refs[v], tols[v])
			}
			if baseline == nil {
				baseline = make([][]float64, len(xs))
			}
			for v := range ys {
				if baseline[v] == nil {
					baseline[v] = ys[v]
				} else {
					// One canonical reduction: bits must not depend on
					// thread count or fused width.
					checkBitwise(t, fmt.Sprintf("%s/width%d/lane%d/canonical", path, width, v), ys[v], baseline[v])
				}
			}
		}
	}
	_ = rows
}

// ---- BLAS-1 differential section ------------------------------------
//
// The solver layer (internal/solve) builds CG and power iteration on
// fused BLAS-1 helpers with one reduction, the ordered one. Their
// contracts mirror the kernel table above:
//
//   - bitwise against an independent re-implementation of the canonical
//     summation tree — fixed 1024-element blocks, partials combined in
//     ascending block order — at every thread count;
//   - ULP-bounded against the plain sequential sum;
//   - element-wise operations (Axpy, Xpay, Scale) bitwise against naive
//     loops at every thread count.

// refOrderedDot is the independent reference for the deterministic
// reduction contract. The 1024-element block length is part of the
// published contract (solve.BLAS documentation), re-stated here rather
// than imported so a regression in either side trips the test.
func refOrderedDot(x, y []float64) float64 {
	const block = 1024
	var total float64
	for lo := 0; lo < len(x); lo += block {
		hi := min(lo+block, len(x))
		var partial float64
		for i := lo; i < hi; i++ {
			partial += float64(x[i] * y[i])
		}
		total += partial
	}
	return total
}

var blasThreads = []int{1, 2, 3, 4, 8}

func TestDifferentialBLAS1(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{0, 1, 5, 1023, 1024, 1025, 4096, 65537} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
				y[i] = rng.NormFloat64()
			}
			ordered := refOrderedDot(x, y)
			var seq, absSum float64
			for i := range x {
				seq += x[i] * y[i]
				absSum += math.Abs(x[i] * y[i])
			}
			const eps = 2.220446049250313e-16
			bound := 4 * float64(n+4) * eps * absSum
			for _, threads := range blasThreads {
				blas := solve.BLAS{Threads: threads}
				if got := blas.Dot(x, y); math.Float64bits(got) != math.Float64bits(ordered) {
					t.Fatalf("threads=%d: Dot %x, reference %x",
						threads, math.Float64bits(got), math.Float64bits(ordered))
				}
				if got := blas.Dot(x, y); math.Abs(got-seq) > bound {
					t.Fatalf("threads=%d: Dot %g vs sequential %g (bound %g)", threads, got, seq, bound)
				}
				wantNorm := math.Sqrt(refOrderedDot(x, x))
				if got := blas.Norm2(x); math.Float64bits(got) != math.Float64bits(wantNorm) {
					t.Fatalf("threads=%d: Norm2 %x, reference %x",
						threads, math.Float64bits(got), math.Float64bits(wantNorm))
				}

				// Element-wise ops: bitwise against naive loops.
				const alpha = 1.5625e-2 // exact in binary
				naive := append([]float64(nil), y...)
				for i := range naive {
					naive[i] += float64(alpha * x[i])
				}
				got := append([]float64(nil), y...)
				blas.Axpy(alpha, x, got)
				checkBitwise(t, fmt.Sprintf("Axpy/threads=%d", threads), got, naive)

				naive = append(naive[:0:0], y...)
				for i := range naive {
					naive[i] = x[i] + float64(alpha*naive[i])
				}
				got = append(got[:0:0], y...)
				blas.Xpay(alpha, x, got)
				checkBitwise(t, fmt.Sprintf("Xpay/threads=%d", threads), got, naive)

				naive = append(naive[:0:0], y...)
				for i := range naive {
					naive[i] *= alpha
				}
				got = append(got[:0:0], y...)
				blas.Scale(alpha, got)
				checkBitwise(t, fmt.Sprintf("Scale/threads=%d", threads), got, naive)
			}
		})
	}
}

// ---- Delta-overlay differential section -----------------------------
//
// Mutable matrices serve sweeps as (base operator pass + overlay
// overwrite of the dirty rows). The contract extends the CSR-family
// table above across mutation: on the deterministic CSR-family paths,
// the overlay pass must reproduce a from-scratch rebuild of the mutated
// matrix BIT FOR BIT — at every thread count, every fused width, and
// regardless of how the delta stream was split into batches.

// deltaStream builds a deterministic mixed set/add/del op stream over an
// R×C base. Dels target the same coordinate distribution as sets, so a
// fair share of them hit existing entries (including entries earlier
// deltas created).
func deltaStream(rows, cols, n int, seed int64) []delta.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]delta.Op, 0, n)
	for k := 0; k < n; k++ {
		i, j := int32(rng.Intn(rows)), int32(rng.Intn(cols))
		switch rng.Intn(5) {
		case 0, 1:
			ops = append(ops, delta.Op{Kind: delta.Set, Row: i, Col: j, Val: rng.NormFloat64()})
		case 2, 3:
			ops = append(ops, delta.Op{Kind: delta.Add, Row: i, Col: j, Val: rng.NormFloat64()})
		default:
			ops = append(ops, delta.Op{Kind: delta.Del, Row: i, Col: j})
		}
	}
	return ops
}

// logOver builds a delta log indexing m's stored entries.
func logOver(m *spmv.Matrix) *delta.Log {
	rows, cols := m.Dims()
	return delta.NewLog(rows, cols, func(yield func(i, j int32, v float64)) {
		m.Entries(func(i, j int, v float64) { yield(int32(i), int32(j), v) })
	})
}

// foldToMatrix rebuilds the mutated matrix from the log.
func foldToMatrix(t *testing.T, l *delta.Log, rows, cols int) *spmv.Matrix {
	t.Helper()
	m := spmv.NewMatrix(rows, cols)
	l.Fold(func(i, j int32, v float64) {
		if err := m.Set(int(i), int(j), v); err != nil {
			t.Fatal(err)
		}
	})
	return m
}

// overlayLanes runs one fused sweep the way the serving layer does —
// base multi-operator pass over the interleaved block, then the overlay
// overwrite of dirty rows — and returns the de-interleaved lanes.
func overlayLanes(t *testing.T, mo *spmv.MultiOperator, ov *delta.Overlay, rows int, xs [][]float64) [][]float64 {
	t.Helper()
	width := len(xs)
	xBlock, err := spmv.Interleave(xs)
	if err != nil {
		t.Fatal(err)
	}
	yBlock := make([]float64, rows*width)
	if err := mo.MulAddBlock(yBlock, xBlock); err != nil {
		t.Fatal(err)
	}
	if err := kernel.OverlayRows(yBlock, xBlock, width, ov.Rows()); err != nil {
		t.Fatal(err)
	}
	ys, err := spmv.Deinterleave(yBlock, width)
	if err != nil {
		t.Fatal(err)
	}
	return ys
}

// TestDifferentialOverlay checks overlay-vs-rebuild bitwise identity on
// both CSR-family multi-RHS views (Multi and the wide kernels), over
// the structural zoo, at threads 1/2/4 and widths 1/4/8.
func TestDifferentialOverlay(t *testing.T) {
	nops := 200
	if testing.Short() {
		nops = 80
	}
	for ci, tc := range diffCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			rows, cols := tc.m.Dims()
			l := logOver(tc.m)
			if err := l.Apply(deltaStream(rows, cols, nops, int64(1000+ci))); err != nil {
				t.Fatal(err)
			}
			ov := l.Overlay()
			folded := foldToMatrix(t, l, rows, cols)
			xs := laneVectors(cols, 8, 555)
			for _, threads := range diffThreads {
				base, err := spmv.CompileParallel(tc.m, spmv.NaiveOptions(), threads, 1)
				if err != nil {
					t.Fatal(err)
				}
				rebuilt, err := spmv.CompileParallel(folded, spmv.NaiveOptions(), threads, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, width := range diffWidths {
					views := map[string]func(op *spmv.Operator) (*spmv.MultiOperator, error){
						"multi": func(op *spmv.Operator) (*spmv.MultiOperator, error) { return op.Multi(width) },
						"wide":  func(op *spmv.Operator) (*spmv.MultiOperator, error) { return op.WideMulti(width) },
					}
					for vn, view := range views {
						bmo, err := view(base)
						if err != nil {
							t.Fatal(err)
						}
						rmo, err := view(rebuilt)
						if err != nil {
							t.Fatal(err)
						}
						got := overlayLanes(t, bmo, ov, rows, xs[:width])
						want, err := rmo.MulAll(xs[:width])
						if err != nil {
							t.Fatal(err)
						}
						for v := range got {
							checkBitwise(t,
								fmt.Sprintf("%s/threads=%d/width=%d/lane%d", vn, threads, width, v),
								got[v], want[v])
						}
					}
				}
			}
		})
	}
}

// TestDifferentialOverlayBatchSplits checks that the overlay — and the
// bits a sweep over it produces — depends only on the total op sequence,
// never on batch boundaries: the same stream applied as one batch,
// per-op batches, and two different chunkings yields byte-identical
// overlay snapshots and bitwise identical sweep results.
func TestDifferentialOverlayBatchSplits(t *testing.T) {
	base := cooToMatrix(t, randomCOO(t, 150, 130, 900, 17, false))
	rows, cols := base.Dims()
	stream := deltaStream(rows, cols, 160, 29)

	apply := func(chunk int) *delta.Log {
		l := logOver(base)
		if chunk <= 0 {
			chunk = len(stream)
		}
		for lo := 0; lo < len(stream); lo += chunk {
			hi := min(lo+chunk, len(stream))
			if err := l.Apply(stream[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}

	ref := apply(0).Overlay()
	xs := laneVectors(cols, 4, 777)
	op, err := spmv.CompileParallel(base, spmv.NaiveOptions(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := op.WideMulti(4)
	if err != nil {
		t.Fatal(err)
	}
	refLanes := overlayLanes(t, mo, ref, rows, xs)

	for _, chunk := range []int{1, 7, 31} {
		ov := apply(chunk).Overlay()
		if ov.Seq() != ref.Seq() || ov.DirtyRows() != ref.DirtyRows() || ov.Entries() != ref.Entries() {
			t.Fatalf("chunk=%d: overlay shape (seq=%d rows=%d entries=%d) != reference (seq=%d rows=%d entries=%d)",
				chunk, ov.Seq(), ov.DirtyRows(), ov.Entries(), ref.Seq(), ref.DirtyRows(), ref.Entries())
		}
		for r, row := range ov.Rows() {
			want := ref.Rows()[r]
			if row.Index != want.Index || len(row.Col) != len(want.Col) {
				t.Fatalf("chunk=%d: dirty row %d shape mismatch", chunk, r)
			}
			for k := range row.Col {
				if row.Col[k] != want.Col[k] || math.Float64bits(row.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("chunk=%d: row %d entry %d (%d,%x) != (%d,%x)",
						chunk, row.Index, k, row.Col[k], math.Float64bits(row.Val[k]),
						want.Col[k], math.Float64bits(want.Val[k]))
				}
			}
		}
		lanes := overlayLanes(t, mo, ov, rows, xs)
		for v := range lanes {
			checkBitwise(t, fmt.Sprintf("chunk=%d/lane%d", chunk, v), lanes[v], refLanes[v])
		}
	}
}

// ---- wire codec ----

// jsonMul is a Mul through the JSON compatibility tier, the way curl
// speaks it.
func jsonMul(base, id string, x []float64) ([]float64, error) {
	body, err := json.Marshal(map[string]any{"x": x})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/matrices/"+id+"/mul", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("json mul: status %d", resp.StatusCode)
	}
	var out struct {
		Y []float64 `json:"y"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Y, err
}

// mulLanes fires one Mul per lane concurrently, so a server with
// MaxBatch > 1 fuses them into one sweep.
func mulLanes(t *testing.T, xs [][]float64, mul func(x []float64) ([]float64, error)) [][]float64 {
	t.Helper()
	ys := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	for v := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ys[v], errs[v] = mul(xs[v])
		}()
	}
	wg.Wait()
	for v, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", v, err)
		}
	}
	return ys
}

// TestDifferentialCodecParity makes the wire codec an axis of the bitwise
// contract: for a local matrix, a patched (live overlay) matrix and a
// K = 2 matrix sharded over HTTPTransport members, y from the JSON tier,
// from binary frames (HTTPClient) and from in-process Server.MulOpts are
// bit-identical — to each other, across pool threads 1/2 and batch widths
// 1/4, and (unpatched) to the naive reference.
func TestDifferentialCodecParity(t *testing.T) {
	coo := duplicateCOO(t, 140, 23)
	m := cooToMatrix(t, coo)
	_, cols := m.Dims()
	xs := laneVectors(cols, 4, 4242)
	patch := []server.Delta{
		{Op: "set", Row: 3, Col: 5, Val: 1.25},
		{Op: "add", Row: 3, Col: 5, Val: -0.5},
		{Op: "add", Row: 77, Col: 0, Val: 3e-3},
		{Op: "set", Row: 139, Col: 139, Val: -7},
		{Op: "del", Row: 3, Col: 5},
		{Op: "set", Row: 3, Col: 6, Val: 2.5},
	}
	want := make([][]float64, len(xs))
	for v := range xs {
		want[v], _ = refMul(coo, xs[v])
	}
	var wantPatched [][]float64 // the first configuration's bits anchor the rest

	for _, threads := range []int{1, 2} {
		for _, width := range []int{1, 4} {
			cfg := server.DefaultConfig()
			cfg.Threads, cfg.Workers = threads, threads
			cfg.MaxBatch = width
			cfg.Adaptive = false // always linger, so the four lanes fuse when width allows
			cfg.BatchWindow = 20 * time.Millisecond
			cfg.RecompactThreshold = -1 // keep the overlay live

			transports := make([]server.Transport, 2)
			for i := range transports {
				ms := server.New(cfg)
				mts := httptest.NewServer(ms.Handler())
				t.Cleanup(func() { mts.Close(); ms.Close() })
				transports[i] = server.NewHTTPTransport(mts.URL, nil)
			}
			cluster, err := server.NewCluster(transports, server.ClusterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			s := server.New(cfg)
			s.AttachCluster(cluster)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() { ts.Close(); s.Close() })
			hc := server.NewHTTPClient(ts.URL, nil)

			if _, err := s.Register("plain", "plain", m); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Register("patched", "patched", m); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Patch("patched", patch); err != nil {
				t.Fatal(err)
			}
			if _, err := cluster.RegisterSharded("sharded", "sharded", m, 2); err != nil {
				t.Fatal(err)
			}

			for _, id := range []string{"plain", "patched", "sharded"} {
				codecs := map[string]func(x []float64) ([]float64, error){
					"inproc": func(x []float64) ([]float64, error) { return s.MulOpts(id, x, server.MulOptions{}) },
					"json":   func(x []float64) ([]float64, error) { return jsonMul(ts.URL, id, x) },
					"frames": func(x []float64) ([]float64, error) { return hc.MulOpts(id, x, server.MulOptions{}) },
				}
				for codec, mul := range codecs {
					got := mulLanes(t, xs, mul)
					ref := want
					if id == "patched" {
						if wantPatched == nil {
							wantPatched = got
						}
						ref = wantPatched
					}
					for v := range got {
						checkBitwise(t, fmt.Sprintf("%s/%s/threads=%d/width=%d/lane%d", id, codec, threads, width, v),
							got[v], ref[v])
					}
				}
			}
			if width > 1 {
				if st := s.Stats(); st.FusedSweeps == 0 {
					t.Errorf("threads=%d width=%d: no sweep fused, the width axis was not exercised", threads, width)
				}
			}
		}
	}
}

// ---- sharded solver trajectories ----

// poissonGrid assembles the 2-D 5-point Poisson stencil on a side × side
// grid: SPD, and slow enough for CG that a trajectory has a few hundred
// points to disagree on.
func poissonGrid(t *testing.T, side int) *spmv.Matrix {
	t.Helper()
	m := spmv.NewMatrix(side*side, side*side)
	set := func(i, j int, v float64) {
		if err := m.Set(i, j, v); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			set(i, i, 4)
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				if rr, cc := r+d[0], c+d[1]; rr >= 0 && rr < side && cc >= 0 && cc < side {
					set(i, rr*side+cc, -1)
				}
			}
		}
	}
	return m
}

// femSPD symmetrizes a FEM/Cantilever twin and sets its diagonal strictly
// dominant: a certificate of positive definiteness, whatever the generator
// produced.
func femSPD(t *testing.T) *spmv.Matrix {
	t.Helper()
	g, err := spmv.GenerateSuite("FEM/Cantilever", 0.02, 31)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spmv.Symmetrize(g)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := m.Dims()
	off, diag := make([]float64, rows), make([]float64, rows)
	m.Entries(func(i, j int, v float64) {
		if i == j {
			diag[i] += v
		} else {
			off[i] += math.Abs(v)
		}
	})
	for i := range off {
		// Duplicates sum at compile: the diagonal ends just above the row's
		// off-diagonal mass.
		if err := m.Set(i, i, 1.001*off[i]+1e-3-diag[i]); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// cgTrajectory runs one CG session on s to convergence.
func cgTrajectory(t *testing.T, s *server.Server, id string, b []float64) server.SolveStatus {
	t.Helper()
	st, err := s.SolveOpts(id, server.SolveRequest{Method: "cg", B: b, Tol: 1e-8, MaxIters: 4000}, server.SolveOptions{})
	for err == nil && st.State == "running" {
		st, err = s.SolveStatus(st.SID, 30*time.Second)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "converged" {
		t.Fatalf("%s: solve ended %s after %d iterations: %s", id, st.State, st.Iters, st.Error)
	}
	return st
}

// poissonFinalResidualBits pins the Poisson case's last History entry: the
// trajectory of the commit before session sweeps and the fused CG step
// existed, so neither moved a bit of it.
const poissonFinalResidualBits = 0x3e424928b13908dd

// TestDifferentialShardedTrajectories: a CG session iterates the same bits
// whatever serves its sweeps — one node's general storage, K = 1/2/4
// in-process members behind Transport.Sweep, or K = 2 HTTP members behind
// its Mul-and-copy fallback. History, Iters and X are compared bit for
// bit, and one trajectory's end is pinned to the parent commit's.
func TestDifferentialShardedTrajectories(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *spmv.Matrix
		pin  uint64
	}{
		{"poisson", poissonGrid(t, 32), poissonFinalResidualBits},
		{"fem", femSPD(t), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, _ := tc.m.Dims()
			b := laneVectors(rows, 1, 99)[0]

			single := server.New(server.DefaultConfig())
			t.Cleanup(single.Close)
			general := false
			if _, err := single.RegisterOpts("m", tc.name, tc.m, server.RegisterOptions{Symmetric: &general}); err != nil {
				t.Fatal(err)
			}
			want := cgTrajectory(t, single, "m", b)
			if tc.pin != 0 {
				if got := math.Float64bits(want.History[len(want.History)-1]); got != tc.pin {
					t.Errorf("final residual bits %#x after %d iterations, the parent commit's trajectory ends at %#x",
						got, want.Iters, tc.pin)
				}
			}

			sharded := func(path string, k int, member func(ms *server.Server) server.Transport) {
				transports := make([]server.Transport, k)
				for i := range transports {
					ms := server.New(server.DefaultConfig())
					t.Cleanup(ms.Close)
					transports[i] = member(ms)
				}
				cluster, err := server.NewCluster(transports, server.ClusterConfig{})
				if err != nil {
					t.Fatal(err)
				}
				front := server.New(server.DefaultConfig())
				t.Cleanup(front.Close)
				front.AttachCluster(cluster)
				if _, err := cluster.RegisterSharded("m", tc.name, tc.m, k); err != nil {
					t.Fatal(err)
				}
				got := cgTrajectory(t, front, "m", b)
				if got.Iters != want.Iters {
					t.Errorf("%s: %d iterations, single-node took %d", path, got.Iters, want.Iters)
				}
				checkBitwise(t, path+"/history", got.History, want.History)
				checkBitwise(t, path+"/x", got.X, want.X)
			}
			for _, k := range []int{1, 2, 4} {
				sharded(fmt.Sprintf("local/K=%d", k), k, func(ms *server.Server) server.Transport {
					return server.NewLocalTransport("member", ms)
				})
			}
			sharded("http/K=2", 2, func(ms *server.Server) server.Transport {
				mts := httptest.NewServer(ms.Handler())
				t.Cleanup(mts.Close)
				return server.NewHTTPTransport(mts.URL, nil)
			})
		})
	}
}

// ---- concurrent solver sessions ----

// concurrentCG starts one CG session per b on s at once and waits for all
// of them. With mid set, it recompacts id once the first session has
// iterated a few times.
func concurrentCG(t *testing.T, s *server.Server, id string, bs [][]float64, mid bool) []server.SolveStatus {
	t.Helper()
	sids := make([]string, len(bs))
	for i, b := range bs {
		st, err := s.SolveOpts(id, server.SolveRequest{Method: "cg", B: b, Tol: 1e-8, MaxIters: 4000}, server.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = st.SID
	}
	if mid {
		for {
			st, err := s.SolveStatus(sids[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Iters >= 5 || st.State != "running" {
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		if err := s.Recompact(id); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]server.SolveStatus, len(sids))
	for i, sid := range sids {
		st, err := s.SolveStatus(sid, 30*time.Second)
		for err == nil && st.State == "running" {
			st, err = s.SolveStatus(sid, 30*time.Second)
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "converged" {
			t.Fatalf("session %d ended %s after %d iterations: %s", i, st.State, st.Iters, st.Error)
		}
		out[i] = st
	}
	return out
}

// TestDifferentialConcurrentSessions: a solver iteration is a batch item,
// so k = 1/2/4/8 concurrent CG sessions on one server share fused sweeps —
// the server here lingers every window, so they fall into waves — and each
// must iterate the bits of its solo run: iteration count, residual history
// and x. The matrices are a general one (registered "symmetric": false), a
// symmetric one (SymCSR, the default) and patched ones (a live delta
// overlay) of both families; the general patched one recompacts mid-solve
// at k = 4. (A patched SymCSR matrix is not recompacted here: its overlay
// rows sum in column order, its rebuilt base in SymSweep's, and the bits
// differ.) Two sessions over two in-process members fuse their band sweeps
// on the members instead, and must iterate the general solo runs' bits.
func TestDifferentialConcurrentSessions(t *testing.T) {
	const side = 24
	m := poissonGrid(t, side)
	bs := laneVectors(side*side, 8, 43)
	// Symmetric edits that keep the grid SPD.
	patch := []server.Delta{
		{Op: "add", Row: 0, Col: 0, Val: 0.5},
		{Op: "add", Row: 300, Col: 300, Val: 2},
		{Op: "set", Row: 30, Col: 31, Val: -0.5},
		{Op: "set", Row: 31, Col: 30, Val: -0.5},
	}
	soloCfg := server.DefaultConfig()
	soloCfg.RecompactThreshold = -1 // the patched matrix keeps its overlay
	fusing := soloCfg
	fusing.Adaptive, fusing.BatchWindow = false, time.Millisecond
	general := false

	solos := map[string][]server.SolveStatus{}
	for _, tc := range []struct {
		name      string
		opts      server.RegisterOptions
		patch     []server.Delta
		recompact bool
	}{
		{"general", server.RegisterOptions{Symmetric: &general}, nil, false},
		{"symmetric", server.RegisterOptions{}, nil, false},
		{"patched", server.RegisterOptions{Symmetric: &general}, patch, true},
		{"patched-symmetric", server.RegisterOptions{}, patch, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(cfg server.Config) *server.Server {
				s := server.New(cfg)
				t.Cleanup(s.Close)
				info, err := s.RegisterOpts("m", tc.name, m, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if info.Symmetric != (tc.opts.Symmetric == nil) {
					t.Fatalf("registered symmetric=%v", info.Symmetric)
				}
				if tc.patch != nil {
					if _, err := s.Patch("m", tc.patch); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			solo := serve(soloCfg)
			want := make([]server.SolveStatus, len(bs))
			for i, b := range bs {
				want[i] = cgTrajectory(t, solo, "m", b)
			}
			solos[tc.name] = want
			for _, k := range []int{1, 2, 4, 8} {
				s := serve(fusing)
				mid := tc.recompact && k == 4
				got := concurrentCG(t, s, "m", bs[:k], mid)
				for i := range got {
					path := fmt.Sprintf("k=%d/session %d", k, i)
					if got[i].Iters != want[i].Iters {
						t.Errorf("%s: %d iterations, alone %d", path, got[i].Iters, want[i].Iters)
					}
					checkBitwise(t, path+"/history", got[i].History, want[i].History)
					checkBitwise(t, path+"/x", got[i].X, want[i].X)
					if mid && got[i].ServingGenerationLast != 1 {
						t.Errorf("%s: ended on generation %d, want the recompacted 1", path, got[i].ServingGenerationLast)
					}
				}
				if st := s.Stats(); k > 1 && st.FusedSweeps == 0 {
					t.Errorf("k=%d: no session sweeps fused (%d sweeps)", k, st.Sweeps)
				}
			}
		})
	}

	t.Run("sharded", func(t *testing.T) {
		want := solos["general"]
		if want == nil {
			t.Skip("the general solo runs failed")
		}
		members := make([]server.Transport, 2)
		var ms []*server.Server
		for i := range members {
			s := server.New(fusing)
			t.Cleanup(s.Close)
			members[i], ms = server.NewLocalTransport(fmt.Sprintf("member%d", i), s), append(ms, s)
		}
		cluster, err := server.NewCluster(members, server.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		front := server.New(server.DefaultConfig())
		t.Cleanup(front.Close)
		front.AttachCluster(cluster)
		if _, err := cluster.RegisterSharded("m", "poisson", m, 2); err != nil {
			t.Fatal(err)
		}
		got := concurrentCG(t, front, "m", bs[:2], false)
		for i := range got {
			path := fmt.Sprintf("session %d", i)
			if got[i].Iters != want[i].Iters {
				t.Errorf("%s: %d iterations, alone %d", path, got[i].Iters, want[i].Iters)
			}
			checkBitwise(t, path+"/history", got[i].History, want[i].History)
			checkBitwise(t, path+"/x", got[i].X, want[i].X)
		}
		for i, s := range ms {
			if st := s.Stats(); st.FusedSweeps == 0 {
				t.Errorf("member %d: no band sweeps fused (%d sweeps)", i, st.Sweeps)
			}
		}
	})
}
