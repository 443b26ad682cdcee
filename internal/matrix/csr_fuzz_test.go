package matrix

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// fuzzValues are the values fuzzed entries draw from: signed zeros,
// magnitudes whose sums depend on their order, and ordinary numbers.
var fuzzValues = []float64{math.Copysign(0, -1), 0, 1, -1, 0.1, 1e300, -1e300, 3e-300, 2.5}

// fuzzCOO builds a rows×cols COO of about n entries from seed. layout's
// low two bits pick how the entries fall: 0 anywhere, 1 all in one row (a
// row longer than any sort cutoff once n is large), 2 row by row with each
// row's columns in order, 3 like 2 but each row reversed. Bit 2 leaves
// every third row and column empty. Bit 3 draws columns next to powers of
// two (2^k - 1, 2^k, 2^k + 1), where the radix passes' digits carry.
func fuzzCOO(seed int64, rows, cols, n int, layout uint8) *COO {
	rng := rand.New(rand.NewSource(seed))
	m := NewCOO(rows, cols)
	val := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64()
		}
		return fuzzValues[rng.Intn(len(fuzzValues))]
	}
	row := func() int {
		r := rng.Intn(rows)
		if layout&4 != 0 && r%3 == 2 {
			r--
		}
		return r
	}
	col := func() int {
		c := rng.Intn(cols)
		if layout&8 != 0 {
			c = min(1<<rng.Intn(bits.Len(uint(cols)))+rng.Intn(3)-1, cols-1)
		}
		if layout&4 != 0 && c%3 == 2 {
			c--
		}
		return c
	}
	switch layout % 4 {
	case 0:
		for k := 0; k < n; k++ {
			_ = m.Append(row(), col(), val())
		}
	case 1:
		r := row()
		for k := 0; k < n; k++ {
			_ = m.Append(r, col(), val())
		}
	default:
		per := n/rows + 1
		for r := 0; r < rows; r++ {
			cs := make([]int, per)
			for j := range cs {
				cs[j] = col()
			}
			sort.Ints(cs)
			if layout%4 == 3 {
				sort.Sort(sort.Reverse(sort.IntSlice(cs)))
			}
			for _, c := range cs {
				_ = m.Append(r, c, val())
			}
		}
	}
	return m
}

// canonicalRef is NewCSR by definition: a stable sort of the entries by
// (row, col), then each run of equal positions summed in arrival order.
func canonicalRef(m *COO) (rowPtr []int64, col []uint32, val []float64) {
	order := make([]int, len(m.Val))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if m.RowIdx[ka] != m.RowIdx[kb] {
			return m.RowIdx[ka] < m.RowIdx[kb]
		}
		return m.ColIdx[ka] < m.ColIdx[kb]
	})
	rowPtr = make([]int64, m.R+1)
	for i, k := range order {
		r, c := m.RowIdx[k], uint32(m.ColIdx[k])
		if i > 0 && r == m.RowIdx[order[i-1]] && c == col[len(col)-1] {
			val[len(val)-1] += m.Val[k]
			continue
		}
		col = append(col, c)
		val = append(val, m.Val[k])
		rowPtr[r+1]++
	}
	for r := 0; r < m.R; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	return rowPtr, col, val
}

// FuzzCanonicalCSR holds NewCSR, at both index widths, to the stable
// (row, col) sort with duplicates summed in arrival order, bit for bit,
// and CutBand to filtering ToCOO by block. Rows of radixMinRow entries or
// more, out of order, take the radix passes; the seeds put one such row
// at, just below and just above that length, with repeated columns far
// apart and values whose sums depend on their order, and columns on the
// digit edges of one pass (256 columns), two 8-bit passes (65 536) and
// two 9-bit passes (past 65 536, 32-bit indices only).
func FuzzCanonicalCSR(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(9), uint16(40), uint8(0), uint8(3))
	f.Add(int64(2), uint8(1), uint8(200), uint16(3000), uint8(1), uint8(5)) // one long unsorted row
	f.Add(int64(3), uint8(30), uint8(30), uint16(600), uint8(2), uint8(1))
	f.Add(int64(4), uint8(12), uint8(50), uint16(900), uint8(3+4), uint8(8))
	f.Add(int64(5), uint8(3), uint8(4), uint16(0), uint8(4), uint8(2))
	f.Add(int64(6), uint8(5), uint8(255), uint16(500), uint8(1+4+128), uint8(0)) // wide: index overflow
	// One unsorted row of 255, 256 and 257 entries over 12 columns: many
	// repeats of each column, far apart.
	f.Add(int64(7), uint8(0), uint8(11), uint16(radixMinRow-1), uint8(1), uint8(0))
	f.Add(int64(8), uint8(0), uint8(11), uint16(radixMinRow), uint8(1), uint8(0))
	f.Add(int64(9), uint8(0), uint8(11), uint16(radixMinRow+1), uint8(1), uint8(0))
	// Long rows with columns next to powers of two: one pass over 256
	// columns (rows reversed), two 8-bit passes over 65 536 (255/256
	// carries), two 9-bit passes over 65 537 (65 535/65 536 carries,
	// rows reversed); then long rows anywhere in 65 481 columns.
	f.Add(int64(10), uint8(2), uint8(255), uint16(1200), uint8(3+8), uint8(8))
	f.Add(int64(11), uint8(0), uint8(255), uint16(2000), uint8(1+8+64), uint8(8))
	f.Add(int64(12), uint8(2), uint8(0), uint16(2000), uint8(3+8+128), uint8(8))
	f.Add(int64(13), uint8(3), uint8(200), uint16(3000), uint8(0+64), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, n uint16, layout, cuts uint8) {
		r, c := int(rows%64)+1, int(cols)+1
		switch {
		case layout&128 != 0:
			c += 1 << 16 // too wide for 16-bit indices
		case layout&64 != 0:
			c += 1<<16 - 256 // as wide as 16-bit indices reach
		}
		m := fuzzCOO(seed, r, c, int(n%4096), layout)
		rowPtr, col, val := canonicalRef(m)

		csr16, err := NewCSR[uint16](m)
		if (err != nil) != (c > 1<<16) || err != nil && !errors.Is(err, ErrIndexOverflow) {
			t.Fatalf("NewCSR[uint16] on %d columns: err %v", c, err)
		}
		if err == nil {
			checkCanonical(t, csr16, r, c, rowPtr, col, val)
		}
		csr, err := NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		checkCanonical(t, csr, r, c, rowPtr, col, val)

		// Cut a band at sorted edges drawn from the seed.
		rng := rand.New(rand.NewSource(seed ^ int64(cuts)))
		r0 := rng.Intn(r + 1)
		r1 := r0 + rng.Intn(r-r0+1)
		edges := make([]int, int(cuts%6)+2)
		for j := range edges {
			edges[j] = rng.Intn(c + 1)
		}
		if cuts&8 != 0 {
			edges[0], edges[len(edges)-1] = 0, c
		}
		sort.Ints(edges)
		edges = dedupInts(edges)
		if len(edges) < 2 {
			return
		}
		all := csr.ToCOO()
		for j, blk := range csr.CutBand(r0, r1, edges) {
			c0, c1 := edges[j], edges[j+1]
			if err := blk.Validate(); err != nil {
				t.Fatalf("block %d: %v", j, err)
			}
			want := NewCOO(r1-r0, c1-c0)
			for k := range all.Val {
				if i, jj := int(all.RowIdx[k]), int(all.ColIdx[k]); i >= r0 && i < r1 && jj >= c0 && jj < c1 {
					want.RowIdx = append(want.RowIdx, int32(i-r0))
					want.ColIdx = append(want.ColIdx, int32(jj-c0))
					want.Val = append(want.Val, all.Val[k])
				}
			}
			got := blk.ToCOO()
			if got.R != want.R || got.C != want.C || len(got.Val) != len(want.Val) {
				t.Fatalf("block %d [%d,%d)x[%d,%d): %dx%d with %d entries, want %d",
					j, r0, r1, c0, c1, got.R, got.C, len(got.Val), len(want.Val))
			}
			for k := range want.Val {
				if got.RowIdx[k] != want.RowIdx[k] || got.ColIdx[k] != want.ColIdx[k] ||
					math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("block %d entry %d differs", j, k)
				}
			}
		}
	})
}

// checkCanonical holds csr to the reference arrays bit for bit.
func checkCanonical[I Index](t *testing.T, csr *CSR[I], r, c int, rowPtr []int64, col []uint32, val []float64) {
	t.Helper()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.R != r || csr.C != c || len(csr.Col) != len(col) || len(csr.Val) != len(val) {
		t.Fatalf("%s: %dx%d with %d entries, want %dx%d with %d",
			csr.FormatName(), csr.R, csr.C, len(csr.Col), r, c, len(col))
	}
	for i := range rowPtr {
		if csr.RowPtr[i] != rowPtr[i] {
			t.Fatalf("%s: rowptr[%d] = %d, want %d", csr.FormatName(), i, csr.RowPtr[i], rowPtr[i])
		}
	}
	for k := range col {
		if uint32(csr.Col[k]) != col[k] || math.Float64bits(csr.Val[k]) != math.Float64bits(val[k]) {
			t.Fatalf("%s: entry %d = (%d, %v), want (%d, %v)",
				csr.FormatName(), k, csr.Col[k], csr.Val[k], col[k], val[k])
		}
	}
}

// dedupInts drops repeats from a sorted slice.
func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
