package kernel

import "math"

// InterleaveInto copies k = len(xs) ≥ 1 vectors, each of at least
// n = len(block)/k values, into block, the interleaved layout the multi-RHS
// kernels read: block[j*k+v] = xs[v][j]. It reports whether every value it
// copied is finite (Finite's carry, folded into the copy).
//
// Lanes move in groups: a group's pass keeps its source rows in registers
// and writes them as one contiguous run per element — 64 bytes, a whole
// cache line at width 8, for each group of eight, then 32 for one group of
// four; each of the last k mod 4 lanes takes a pass of its own.
func InterleaveInto(block []float64, xs [][]float64) (finite bool) {
	k := len(xs)
	n := len(block) / k
	var c0, c1, c2, c3 uint64
	v := 0
	for ; v+8 <= k; v += 8 {
		x0, x1, x2, x3 := xs[v][:n], xs[v+1][:n], xs[v+2][:n], xs[v+3][:n]
		x4, x5, x6, x7 := xs[v+4][:n], xs[v+5][:n], xs[v+6][:n], xs[v+7][:n]
		for j, o := 0, v; j < n; j, o = j+1, o+k {
			b := (*[8]float64)(block[o : o+8])
			b[0], b[1], b[2], b[3] = x0[j], x1[j], x2[j], x3[j]
			b[4], b[5], b[6], b[7] = x4[j], x5[j], x6[j], x7[j]
			c0 |= nonFiniteCarry(b[0]) | nonFiniteCarry(b[4])
			c1 |= nonFiniteCarry(b[1]) | nonFiniteCarry(b[5])
			c2 |= nonFiniteCarry(b[2]) | nonFiniteCarry(b[6])
			c3 |= nonFiniteCarry(b[3]) | nonFiniteCarry(b[7])
		}
	}
	if v+4 <= k {
		x0, x1, x2, x3 := xs[v][:n], xs[v+1][:n], xs[v+2][:n], xs[v+3][:n]
		for j, o := 0, v; j < n; j, o = j+1, o+k {
			b := (*[4]float64)(block[o : o+4])
			b[0], b[1], b[2], b[3] = x0[j], x1[j], x2[j], x3[j]
			c0 |= nonFiniteCarry(b[0])
			c1 |= nonFiniteCarry(b[1])
			c2 |= nonFiniteCarry(b[2])
			c3 |= nonFiniteCarry(b[3])
		}
		v += 4
	}
	for ; v < k; v++ {
		x0 := xs[v][:n]
		for j, o := 0, v; j < n; j, o = j+1, o+k {
			block[o] = x0[j]
			c0 |= nonFiniteCarry(x0[j])
		}
	}
	return (c0|c1|c2|c3)>>63 == 0
}

// DeinterleaveInto copies block back out into k = len(ys) ≥ 1 vectors:
// ys[v][j] = block[j*k+v] for j < len(block)/k, which every vector must
// hold. Lanes move eight to a pass (64 contiguous bytes read per element),
// then one pass for each of the last k mod 8: with no carry to compute,
// single-lane passes measured as fast as a group of four.
func DeinterleaveInto(ys [][]float64, block []float64) {
	k := len(ys)
	n := len(block) / k
	v := 0
	for ; v+8 <= k; v += 8 {
		y0, y1, y2, y3 := ys[v][:n], ys[v+1][:n], ys[v+2][:n], ys[v+3][:n]
		y4, y5, y6, y7 := ys[v+4][:n], ys[v+5][:n], ys[v+6][:n], ys[v+7][:n]
		for j, o := 0, v; j < n; j, o = j+1, o+k {
			b := (*[8]float64)(block[o : o+8])
			y0[j], y1[j], y2[j], y3[j] = b[0], b[1], b[2], b[3]
			y4[j], y5[j], y6[j], y7[j] = b[4], b[5], b[6], b[7]
		}
	}
	for ; v < k; v++ {
		y0 := ys[v][:n]
		for j, o := 0, v; j < n; j, o = j+1, o+k {
			y0[j] = block[o]
		}
	}
}

// Finite reports whether v holds no NaN and no ±Inf. It ORs four
// independent carries, so consecutive elements do not wait on one OR chain.
func Finite(v []float64) bool {
	var c0, c1, c2, c3 uint64
	for ; len(v) >= 4; v = v[4:] {
		c0 |= nonFiniteCarry(v[0])
		c1 |= nonFiniteCarry(v[1])
		c2 |= nonFiniteCarry(v[2])
		c3 |= nonFiniteCarry(v[3])
	}
	for _, x := range v {
		c0 |= nonFiniteCarry(x)
	}
	return (c0|c1|c2|c3)>>63 == 0
}

// nonFiniteCarry has bit 63 set exactly when x is NaN or ±Inf: those are
// the values whose exponent field is all ones, and only then does adding
// the field's lowest bit carry out of it. OR-ing the carries of a whole
// vector tests it branch-free — one AND, ADD and OR per element, cheap
// enough for every Mul's x (and free inside a loop already streaming x).
func nonFiniteCarry(x float64) uint64 {
	const expMask, expLSB = 0x7FF << 52, 1 << 52
	return math.Float64bits(x)&expMask + expLSB
}
