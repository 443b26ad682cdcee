package tune

import (
	"fmt"
	"math/bits"

	"repro/internal/matrix"
)

// candidate is one (format, shape, index width) choice with its exact
// footprint, computed without materializing the encoding.
type candidate struct {
	format    string // "CSR", "BCSR", "BCOO"
	shape     matrix.BlockShape
	indexBits int
	footprint int64
	stored    int64
}

// encodeBest runs the paper's one-pass footprint minimization over a
// sub-matrix (local coordinates) and, when encode is set, materializes
// only the winner; otherwise the encoding is nil and the decision carries
// the enumeration's closed-form footprint.
func encodeBest(csr *matrix.CSR32, opt Options, encode bool) (matrix.Format, Decision, error) {
	nnz := csr.NNZ()

	cands := enumerate(csr, opt)
	best := cands[0]
	for _, c := range cands[1:] {
		if c.footprint < best.footprint {
			best = c
		}
	}
	dec := Decision{
		Rows: csr.R, Cols: csr.C, NNZ: nnz,
		Format: best.format, Shape: best.shape, IndexBits: best.indexBits,
		Footprint: best.footprint,
	}
	if nnz > 0 {
		dec.Fill = float64(best.stored) / float64(nnz)
	} else {
		dec.Fill = 1
	}
	if !encode {
		return nil, dec, nil
	}

	enc, err := materialize(csr, best)
	if err != nil {
		return nil, Decision{}, err
	}
	// The enumeration's closed-form footprint must agree with the encoded
	// structure; a mismatch means the tuner's accounting is wrong.
	if got := enc.FootprintBytes(); got != best.footprint {
		return nil, Decision{}, fmt.Errorf(
			"tune: footprint accounting mismatch for %s %v/%d: predicted %d, encoded %d",
			best.format, best.shape, best.indexBits, best.footprint, got)
	}
	return enc, dec, nil
}

// enumerate lists the allowed candidates with exact footprints.
func enumerate(csr *matrix.CSR32, opt Options) []candidate {
	nnz := csr.NNZ()
	cands := []candidate{{
		format: "CSR", shape: matrix.BlockShape{R: 1, C: 1}, indexBits: 32,
		footprint: nnz*8 + nnz*4 + int64(csr.R+1)*8,
		stored:    nnz,
	}}
	if opt.ReduceIndices && csr.C <= 1<<16 {
		cands = append(cands, candidate{
			format: "CSR", shape: matrix.BlockShape{R: 1, C: 1}, indexBits: 16,
			footprint: nnz*8 + nnz*2 + int64(csr.R+1)*8,
			stored:    nnz,
		})
	}
	if !opt.RegisterBlock {
		return cands
	}
	var counts [5][3]int64 // tiles by tile height, then width 1, 2, 4
	var counted [5]bool
	for _, shape := range matrix.BlockShapes {
		if shape.R < opt.MinBlockRows && shape.C > 1 {
			continue // a one-row multi-column tile: CSR's chain plus fill
		}
		tiles := nnz // a 1×1 tile per nonzero
		if shape.Area() > 1 {
			if !counted[shape.R] {
				counts[shape.R], counted[shape.R] = countTiles(csr, shape.R), true
			}
			tiles = counts[shape.R][bits.TrailingZeros(uint(shape.C))]
		}
		stored := tiles * int64(shape.Area())
		brows := (csr.R + shape.R - 1) / shape.R
		bcols := (csr.C + shape.C - 1) / shape.C
		widths := []int{32}
		if opt.ReduceIndices && bcols <= 1<<16 && brows <= 1<<16 {
			widths = append(widths, 16)
		}
		for _, w := range widths {
			ib := int64(w / 8)
			cands = append(cands, candidate{
				format: "BCSR", shape: shape, indexBits: w,
				footprint: stored*8 + tiles*ib + int64(brows+1)*8,
				stored:    stored,
			})
			if opt.AllowBCOO {
				cands = append(cands, candidate{
					format: "BCOO", shape: shape, indexBits: w,
					footprint: stored*8 + 2*tiles*ib,
					stored:    stored,
				})
			}
		}
	}
	return cands
}

// countTiles returns, for tiles of the given height (1, 2 or 4 rows), the
// number of distinct aligned tiles of width 1, 2 and 4 that contain at
// least one nonzero — the quantity behind the fill-ratio gamble. It is
// the "one pass over the nonzeros" of §4.2, one pass per tile height: a
// block row's nonzeros are contiguous in CSR, and a tile is new the first
// time its tile column (col, col >> 1, col >> 2) is seen in the block row
// (seen1, seen2 and seen4 hold the last block row, plus one, that touched
// each tile column of that width).
func countTiles(csr *matrix.CSR32, height int) (tiles [3]int64) {
	seen1 := make([]int32, csr.C)
	seen2 := make([]int32, (csr.C+1)/2)
	seen4 := make([]int32, (csr.C+3)/4)
	for br, r0 := int32(1), 0; r0 < csr.R; br, r0 = br+1, r0+height {
		r1 := min(r0+height, csr.R)
		for _, c := range csr.Col[csr.RowPtr[r0]:csr.RowPtr[r1]] {
			if seen1[c] == br {
				continue // its ×2 and ×4 tiles are counted already
			}
			seen1[c] = br
			tiles[0]++
			if seen2[c>>1] != br {
				seen2[c>>1] = br
				tiles[1]++
			}
			if seen4[c>>2] != br {
				seen4[c>>2] = br
				tiles[2]++
			}
		}
	}
	return tiles
}

// materialize encodes the winning candidate.
func materialize(csr *matrix.CSR32, c candidate) (matrix.Format, error) {
	switch c.format {
	case "CSR":
		if c.indexBits == 16 {
			return matrix.NarrowCSR(csr)
		}
		return csr, nil
	case "BCSR":
		if c.indexBits == 16 {
			return matrix.NewBCSR[uint16](csr, c.shape)
		}
		return matrix.NewBCSR[uint32](csr, c.shape)
	case "BCOO":
		if c.indexBits == 16 {
			return matrix.NewBCOO[uint16](csr, c.shape)
		}
		return matrix.NewBCOO[uint32](csr, c.shape)
	default:
		return nil, fmt.Errorf("tune: unknown format %q", c.format)
	}
}
