package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// interleave and deinterleave allocate around the copy bodies, for tests
// that keep their vectors apart.
func interleave(xs [][]float64) []float64 {
	block := make([]float64, len(xs)*len(xs[0]))
	InterleaveInto(block, xs)
	return block
}

func deinterleave(block []float64, k int) [][]float64 {
	ys := make([][]float64, k)
	for v := range ys {
		ys[v] = make([]float64, len(block)/k)
	}
	DeinterleaveInto(ys, block)
	return ys
}

// refInterleave is the reference j-outer loop the lane-grouped bodies
// replace, finiteness carry included: block[j*k+v] = xs[v][j], one value
// at a time.
func refInterleave(block []float64, xs [][]float64) (finite bool) {
	k := len(xs)
	var carry uint64
	for j := 0; j < len(block)/k; j++ {
		for v := range xs {
			block[j*k+v] = xs[v][j]
			carry |= nonFiniteCarry(xs[v][j])
		}
	}
	return carry>>63 == 0
}

func refDeinterleave(ys [][]float64, block []float64) {
	k := len(ys)
	for j := 0; j < len(block)/k; j++ {
		for v := range ys {
			ys[v][j] = block[j*k+v]
		}
	}
}

// refFinite is Finite by the definition: no NaN and no ±Inf.
func refFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// finiteCopyValues and nonFiniteCopyValues are the values a copy could
// mangle or a finiteness test could misjudge: NaNs with payloads and either sign, ±Inf, −0, subnormals at
// both ends of their range, and the largest normals.
var (
	finiteCopyValues = []float64{
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000F_FFFF_FFFF_FFFF), math.MaxFloat64, -math.MaxFloat64, 1, -2.5,
	}
	nonFiniteCopyValues = []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0_0000_0000_0001), // signalling NaN, lowest payload
		math.Float64frombits(0xFFF8_DEAD_BEEF_0001), // negative quiet NaN with a payload
		math.Float64frombits(0x7FFF_FFFF_FFFF_FFFF),
	}
)

// copyVectors draws k vectors of n values from finiteCopyValues and
// normals, then puts one non-finite value at a random element of each
// lane in bad.
func copyVectors(rng *rand.Rand, k, n int, bad map[int]bool) [][]float64 {
	xs := make([][]float64, k)
	for v := range xs {
		xs[v] = make([]float64, n)
		for j := range xs[v] {
			if rng.Intn(3) == 0 {
				xs[v][j] = finiteCopyValues[rng.Intn(len(finiteCopyValues))]
			} else {
				xs[v][j] = rng.NormFloat64()
			}
		}
		if bad[v] && n > 0 {
			xs[v][rng.Intn(n)] = nonFiniteCopyValues[rng.Intn(len(nonFiniteCopyValues))]
		}
	}
	return xs
}

// checkCopyBodies holds InterleaveInto and DeinterleaveInto to the
// reference loops bit for bit, InterleaveInto's finite to Finite on every
// lane, and Finite to its definition.
func checkCopyBodies(t *testing.T, xs [][]float64, n int) {
	t.Helper()
	k := len(xs)
	got, want := make([]float64, n*k), make([]float64, n*k)
	finite := InterleaveInto(got, xs)
	if refInterleave(want, xs) != finite {
		t.Fatalf("width %d length %d: InterleaveInto reports finite=%v, the reference loop %v", k, n, finite, !finite)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("width %d length %d: block[%d] = %#x, want %#x", k, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	allFinite := true
	for v, x := range xs {
		if Finite(x) != refFinite(x) {
			t.Fatalf("width %d length %d: Finite(lane %d) = %v, want %v", k, n, v, Finite(x), refFinite(x))
		}
		allFinite = allFinite && Finite(x)
	}
	if finite != allFinite {
		t.Fatalf("width %d length %d: InterleaveInto reports finite=%v, lanes say %v", k, n, finite, allFinite)
	}
	back, ref := make([][]float64, k), make([][]float64, k)
	for v := range back {
		back[v], ref[v] = make([]float64, n), make([]float64, n)
	}
	DeinterleaveInto(back, got)
	refDeinterleave(ref, got)
	for v := range back {
		for j := range back[v] {
			b := math.Float64bits(back[v][j])
			if b != math.Float64bits(ref[v][j]) || b != math.Float64bits(xs[v][j]) {
				t.Fatalf("width %d length %d: lane %d[%d] = %#x, reference %#x, interleaved %#x",
					k, n, v, j, b, math.Float64bits(ref[v][j]), math.Float64bits(xs[v][j]))
			}
		}
	}
}

// TestInterleaveIntoBitwise covers every lane split of widths 1-12 (single
// lanes only; groups of four or eight, alone, together and with single
// lanes after them) at lengths that leave a partial four-element run for
// Finite: all-finite vectors, then a non-finite value in each lane alone.
func TestInterleaveIntoBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for k := 1; k <= 12; k++ {
		for _, n := range []int{0, 1, 3, 1025} {
			checkCopyBodies(t, copyVectors(rng, k, n, nil), n)
			for v := 0; v < k; v++ {
				checkCopyBodies(t, copyVectors(rng, k, n, map[int]bool{v: true}), n)
			}
		}
	}
}

// FuzzInterleave holds the copy bodies and Finite to the same properties
// over random widths, lengths and sets of non-finite lanes.
func FuzzInterleave(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(31), uint16(0))
	f.Add(int64(2), uint8(7), uint16(1025), uint16(0b1000001))
	f.Add(int64(3), uint8(3), uint16(4), uint16(0b100))
	f.Fuzz(func(t *testing.T, seed int64, width8 uint8, n16 uint16, badMask uint16) {
		k, n := 1+int(width8)%16, int(n16)%4096
		bad := map[int]bool{}
		for v := 0; v < k; v++ {
			bad[v] = badMask>>v&1 == 1
		}
		checkCopyBodies(t, copyVectors(rand.New(rand.NewSource(seed)), k, n, bad), n)
	})
}

// BenchmarkBatchCopy times batch formation's two copies at the Cantilever
// twin's 31 000 rows (scale 0.5, what serve-fused batches): body=lanes is
// InterleaveInto or DeinterleaveInto, body=ref the reference j-outer loop
// the server ran before them. GB/s counts the block's bytes once per copy.
func BenchmarkBatchCopy(b *testing.B) {
	const n = 31000
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{2, 4, 7, 8} {
		xs := copyVectors(rng, k, n, nil)
		block := make([]float64, n*k)
		copies := []struct {
			name string
			run  func()
		}{
			{"interleave/body=lanes", func() { InterleaveInto(block, xs) }},
			{"interleave/body=ref", func() { _ = refInterleave(block, xs) }},
			{"deinterleave/body=lanes", func() { DeinterleaveInto(xs, block) }},
			{"deinterleave/body=ref", func() { refDeinterleave(xs, block) }},
		}
		for _, c := range copies {
			b.Run(fmt.Sprintf("%s/width=%d", c.name, k), func(b *testing.B) {
				for b.Loop() {
					c.run()
				}
				b.ReportMetric(float64(8*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}

// BenchmarkFinite times the finiteness scan at a Poisson band's length
// (22 500) and the Cantilever twin's (31 000).
func BenchmarkFinite(b *testing.B) {
	for _, n := range []int{22500, 31000} {
		v := copyVectors(rand.New(rand.NewSource(int64(n))), 1, n, nil)[0]
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ok := true
			for b.Loop() {
				ok = ok && Finite(v)
			}
			if !ok {
				b.Fatal("finite vector refused")
			}
			b.ReportMetric(float64(8*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
