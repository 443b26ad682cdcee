package matrix

import (
	"errors"
	"math"
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
// every third row and column empty.
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

// FuzzCanonicalCSR holds NewCSR to the stable (row, col) sort with
// duplicates summed in arrival order, bit for bit, and CutBand to
// filtering ToCOO by block.
func FuzzCanonicalCSR(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(9), uint16(40), uint8(0), uint8(3))
	f.Add(int64(2), uint8(1), uint8(200), uint16(3000), uint8(1), uint8(5)) // one long unsorted row
	f.Add(int64(3), uint8(30), uint8(30), uint16(600), uint8(2), uint8(1))
	f.Add(int64(4), uint8(12), uint8(50), uint16(900), uint8(3+4), uint8(8))
	f.Add(int64(5), uint8(3), uint8(4), uint16(0), uint8(4), uint8(2))
	f.Add(int64(6), uint8(5), uint8(255), uint16(500), uint8(1+4+128), uint8(0)) // wide: index overflow
	f.Fuzz(func(t *testing.T, seed int64, rows, cols uint8, n uint16, layout, cuts uint8) {
		r, c := int(rows%64)+1, int(cols)+1
		if layout&128 != 0 {
			c += 1 << 16 // too wide for 16-bit indices
		}
		m := fuzzCOO(seed, r, c, int(n%4096), layout)

		if _, err := NewCSR[uint16](m); (err != nil) != (c > 1<<16) ||
			err != nil && !errors.Is(err, ErrIndexOverflow) {
			t.Fatalf("NewCSR[uint16] on %d columns: err %v", c, err)
		}
		csr, err := NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		if err := csr.Validate(); err != nil {
			t.Fatal(err)
		}
		rowPtr, col, val := canonicalRef(m)
		if csr.R != r || csr.C != c || len(csr.Col) != len(col) || len(csr.Val) != len(val) {
			t.Fatalf("%dx%d with %d entries, want %dx%d with %d", csr.R, csr.C, len(csr.Col), r, c, len(col))
		}
		for i := range rowPtr {
			if csr.RowPtr[i] != rowPtr[i] {
				t.Fatalf("rowptr[%d] = %d, want %d", i, csr.RowPtr[i], rowPtr[i])
			}
		}
		for k := range col {
			if csr.Col[k] != col[k] || math.Float64bits(csr.Val[k]) != math.Float64bits(val[k]) {
				t.Fatalf("entry %d = (%d, %v), want (%d, %v)", k, csr.Col[k], csr.Val[k], col[k], val[k])
			}
		}

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
