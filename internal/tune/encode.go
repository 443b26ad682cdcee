package tune

import (
	"fmt"
	"math/bits"

	"repro/internal/matrix"
)

// choose runs the paper's one-pass footprint minimization over a block
// (packed, in local coordinates): the first candidate with the smallest
// closed-form footprint wins.
func choose(blk *matrix.Packed[uint32], opt Options) Decision {
	cands := enumerate(blk, opt)
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Footprint < best.Footprint {
			best = c
		}
	}
	best.Rows, best.Cols, best.NNZ = blk.R, blk.C, blk.NNZ()
	return best
}

// enumerate lists the allowed (format, shape, index width) candidates
// with exact footprints, computed without materializing the encodings.
func enumerate(blk *matrix.Packed[uint32], opt Options) []Decision {
	nnz := blk.NNZ()
	fill := func(stored int64) float64 {
		if nnz == 0 {
			return 1
		}
		return float64(stored) / float64(nnz)
	}
	one := matrix.BlockShape{R: 1, C: 1}
	cands := []Decision{{
		Format: "CSR", Shape: one, IndexBits: 32,
		Footprint: nnz*8 + nnz*4 + int64(blk.R+1)*8, Fill: 1,
	}}
	if opt.ReduceIndices && blk.C <= 1<<16 {
		cands = append(cands, Decision{
			Format: "CSR", Shape: one, IndexBits: 16,
			Footprint: nnz*8 + nnz*2 + int64(blk.R+1)*8, Fill: 1,
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
				counts[shape.R], counted[shape.R] = countTiles(blk, shape.R), true
			}
			tiles = counts[shape.R][bits.TrailingZeros(uint(shape.C))]
		}
		stored := tiles * int64(shape.Area())
		brows := (blk.R + shape.R - 1) / shape.R
		bcols := (blk.C + shape.C - 1) / shape.C
		widths := []int{32}
		if opt.ReduceIndices && bcols <= 1<<16 && brows <= 1<<16 {
			widths = append(widths, 16)
		}
		for _, w := range widths {
			ib := int64(w / 8)
			cands = append(cands, Decision{
				Format: "BCSR", Shape: shape, IndexBits: w,
				Footprint: stored*8 + tiles*ib + int64(brows+1)*8,
				Fill:      fill(stored),
			})
			if opt.AllowBCOO {
				cands = append(cands, Decision{
					Format: "BCOO", Shape: shape, IndexBits: w,
					Footprint: stored*8 + 2*tiles*ib,
					Fill:      fill(stored),
				})
			}
		}
	}
	return cands
}

// countTiles returns, for tiles of the given height (1, 2 or 4 rows), the
// number of distinct aligned tiles of width 1, 2 and 4 that contain at
// least one nonzero — the quantity behind the fill-ratio gamble. It is
// the "one pass over the nonzeros" of §4.2, one pass per tile height,
// row by non-empty row: a tile is new the first time its tile column
// (col, col >> 1, col >> 2) is seen in the block row (seen1, seen2 and
// seen4 hold the last block row, plus one, that touched each tile column
// of that width).
func countTiles(blk *matrix.Packed[uint32], height int) (tiles [3]int64) {
	seen1 := make([]int32, blk.C)
	seen2 := make([]int32, (blk.C+1)/2)
	seen4 := make([]int32, (blk.C+3)/4)
	for k, r := range blk.Rows {
		br := r/int32(height) + 1
		for _, c := range blk.Col[blk.Start[k]:blk.Start[k+1]] {
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

// materialize encodes a block as its decision says. The enumeration's
// closed-form footprint must agree with the encoded structure; a mismatch
// means the tuner's accounting is wrong.
func materialize(csr *matrix.CSR32, d Decision) (matrix.Format, error) {
	var enc matrix.Format
	var err error
	switch {
	case d.Format == "CSR" && d.IndexBits == 16:
		enc, err = matrix.NarrowCSR(csr)
	case d.Format == "CSR":
		enc = csr
	case d.Format == "BCSR" && d.IndexBits == 16:
		enc, err = matrix.NewBCSR[uint16](csr, d.Shape)
	case d.Format == "BCSR":
		enc, err = matrix.NewBCSR[uint32](csr, d.Shape)
	case d.Format == "BCOO" && d.IndexBits == 16:
		enc, err = matrix.NewBCOO[uint16](csr, d.Shape)
	case d.Format == "BCOO":
		enc, err = matrix.NewBCOO[uint32](csr, d.Shape)
	default:
		return nil, fmt.Errorf("tune: unknown format %q", d.Format)
	}
	if err != nil {
		return nil, err
	}
	if got := enc.FootprintBytes(); got != d.Footprint {
		return nil, fmt.Errorf(
			"tune: footprint accounting mismatch for %s %v/%d: predicted %d, encoded %d",
			d.Format, d.Shape, d.IndexBits, d.Footprint, got)
	}
	return enc, nil
}
