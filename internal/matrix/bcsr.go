package matrix

import (
	"fmt"
	"math"
	"math/bits"
)

// BlockShape is a register-blocking tile shape. The paper restricts itself
// to power-of-two blocks up to 4×4 to enable SIMDization and limit register
// pressure, giving the nine shapes enumerated by BlockShapes.
type BlockShape struct {
	R, C int
}

// BlockShapes lists every register-block shape the study considers,
// 1×1 through 4×4 with power-of-two dimensions.
var BlockShapes = []BlockShape{
	{1, 1}, {1, 2}, {1, 4},
	{2, 1}, {2, 2}, {2, 4},
	{4, 1}, {4, 2}, {4, 4},
}

func (b BlockShape) String() string { return fmt.Sprintf("%dx%d", b.R, b.C) }

// Area returns the number of scalar slots in a tile.
func (b BlockShape) Area() int { return b.R * b.C }

func (b BlockShape) valid() bool {
	ok := func(n int) bool { return n == 1 || n == 2 || n == 4 }
	return ok(b.R) && ok(b.C)
}

// BCSR is register-blocked CSR: the matrix is tiled into Shape.R × Shape.C
// tiles aligned to the tile grid, and only one column coordinate is stored
// per tile. Tiles that are not fully dense carry explicit zeros — the
// storage gamble the paper describes: the 8-byte deficit per filled zero
// must be offset by index savings on other tiles.
//
// Val holds tiles consecutively, each tile in row-major order, so the
// kernel for a fixed shape can be fully unrolled.
type BCSR[I Index] struct {
	R, C      int        // logical dimensions
	Shape     BlockShape // tile shape
	BlockRows int        // number of tile rows = ceil(R/Shape.R)
	RowPtr    []int64    // per tile row, indexes tiles
	BCol      []I        // tile column index (column offset / Shape.C)
	Val       []float64  // len == len(BCol) * Shape.Area()
	nnz       int64      // logical nonzeros (excludes fill)
}

// NewBCSR register-blocks a CSR matrix into the given tile shape. It
// returns ErrIndexOverflow if the number of tile columns exceeds the index
// range (note the index compression here: tile column indices shrink by a
// factor of Shape.C relative to scalar column indices).
func NewBCSR[I Index](src *CSR32, shape BlockShape) (*BCSR[I], error) {
	if err := checkTiling[I](src, shape, false); err != nil {
		return nil, err
	}
	rowPtr, bcol, val := tile[I](src, shape)
	return &BCSR[I]{
		R: src.R, C: src.C, Shape: shape,
		BlockRows: len(rowPtr) - 1, RowPtr: rowPtr, BCol: bcol, Val: val,
		nnz: src.NNZ(),
	}, nil
}

// checkTiling rejects a shape outside BlockShapes and a tile grid whose
// tile columns (and, for block-coordinate storage, tile rows) overflow I.
func checkTiling[I Index](src *CSR32, shape BlockShape, rowIndices bool) error {
	if !shape.valid() {
		return fmt.Errorf("matrix: unsupported block shape %v", shape)
	}
	if bcols := (src.C + shape.C - 1) / shape.C; bcols > MaxIndex[I]()+1 {
		return fmt.Errorf("%w: %d tile columns with %d-byte indices",
			ErrIndexOverflow, bcols, IndexBytes[I]())
	}
	if brows := (src.R + shape.R - 1) / shape.R; rowIndices && brows > MaxIndex[I]()+1 {
		return fmt.Errorf("%w: %d tile rows with %d-byte indices",
			ErrIndexOverflow, brows, IndexBytes[I]())
	}
	return nil
}

// tile lays src out in shape-aligned tiles: per tile row, its tiles in
// ascending tile column, each tile's values row-major with zero fill;
// rowPtr indexes the tiles by tile row. A tile row's scalar rows are each
// sorted, so merging them by tile column (col >> log₂ Shape.C) meets the
// tiles in order: one merge counts them, a second fills them. 1×1 tiles
// are src's nonzeros: RowPtr and Val are shared with src, as NarrowCSR
// shares them.
func tile[I Index](src *CSR32, shape BlockShape) (rowPtr []int64, bcol []I, val []float64) {
	if shape.Area() == 1 {
		bcol = make([]I, len(src.Col))
		for k, c := range src.Col {
			bcol[k] = I(c)
		}
		return src.RowPtr, bcol, src.Val
	}
	shiftC := uint(bits.TrailingZeros(uint(shape.C)))
	shiftR := uint(bits.TrailingZeros(uint(shape.R)))
	mask := uint32(shape.C - 1)
	brows := (src.R + shape.R - 1) >> shiftR
	rowPtr = make([]int64, brows+1)
	var m tileMerge
	for br := 0; br < brows; br++ {
		n := rowPtr[br]
		for m.start(src, br<<shiftR, shape.R); ; n++ {
			bc, ok := m.next(shiftC)
			if !ok {
				break
			}
			for dr := 0; dr < m.rows; dr++ {
				m.cur[dr] = m.run(dr, bc, shiftC)
			}
		}
		rowPtr[br+1] = n
	}
	area := int64(shape.Area())
	bcol = make([]I, rowPtr[brows])
	val = make([]float64, rowPtr[brows]*area)
	for br := 0; br < brows; br++ {
		m.start(src, br<<shiftR, shape.R)
		for t := rowPtr[br]; t < rowPtr[br+1]; t++ {
			bc, _ := m.next(shiftC)
			bcol[t] = I(bc)
			for dr := 0; dr < m.rows; dr++ {
				row := val[t*area+int64(dr<<shiftC):]
				k := m.run(dr, bc, shiftC)
				for j := m.cur[dr]; j < k; j++ {
					row[src.Col[j]&mask] = src.Val[j]
				}
				m.cur[dr] = k
			}
		}
	}
	return rowPtr, bcol, val
}

// tileMerge walks the sorted scalar rows of one tile row together, tile
// column by tile column.
type tileMerge struct {
	src      *CSR32
	rows     int
	cur, end [4]int64
}

// start positions the merge at the first nonzero of each of the (up to
// height) rows from r0.
func (m *tileMerge) start(src *CSR32, r0, height int) {
	m.src, m.rows = src, min(height, src.R-r0)
	for dr := 0; dr < m.rows; dr++ {
		m.cur[dr], m.end[dr] = src.RowPtr[r0+dr], src.RowPtr[r0+dr+1]
	}
}

// next returns the smallest tile column any row has left, or false when
// every row is done.
func (m *tileMerge) next(shiftC uint) (uint32, bool) {
	bc, ok := uint32(math.MaxUint32), false
	for dr := 0; dr < m.rows; dr++ {
		if m.cur[dr] < m.end[dr] {
			bc, ok = min(bc, m.src.Col[m.cur[dr]]>>shiftC), true
		}
	}
	return bc, ok
}

// run returns the end of row dr's run of nonzeros in tile column bc.
func (m *tileMerge) run(dr int, bc uint32, shiftC uint) int64 {
	k := m.cur[dr]
	for k < m.end[dr] && m.src.Col[k]>>shiftC == bc {
		k++
	}
	return k
}

// Dims implements Format.
func (m *BCSR[I]) Dims() (int, int) { return m.R, m.C }

// NNZ implements Format.
func (m *BCSR[I]) NNZ() int64 { return m.nnz }

// Stored implements Format, counting explicit zero fill.
func (m *BCSR[I]) Stored() int64 { return int64(len(m.Val)) }

// Blocks returns the number of stored tiles.
func (m *BCSR[I]) Blocks() int64 { return int64(len(m.BCol)) }

// FillRatio returns Stored/NNZ, the register-blocking fill overhead.
func (m *BCSR[I]) FillRatio() float64 {
	if m.nnz == 0 {
		return 1
	}
	return float64(m.Stored()) / float64(m.nnz)
}

// FootprintBytes implements Format: tile values + one index per tile + tile
// row pointers.
func (m *BCSR[I]) FootprintBytes() int64 {
	return int64(len(m.Val))*8 +
		m.Blocks()*IndexBytes[I]() +
		int64(len(m.RowPtr))*8
}

// FormatName implements Format.
func (m *BCSR[I]) FormatName() string {
	return fmt.Sprintf("BCSR %v /%d", m.Shape, 8*IndexBytes[I]())
}

// ToCOO expands back to coordinate form, dropping explicit zero fill.
func (m *BCSR[I]) ToCOO() *COO {
	out := NewCOO(m.R, m.C)
	area := m.Shape.Area()
	for br := 0; br < m.BlockRows; br++ {
		for t := m.RowPtr[br]; t < m.RowPtr[br+1]; t++ {
			base := t * int64(area)
			c0 := int(m.BCol[t]) * m.Shape.C
			r0 := br * m.Shape.R
			for dr := 0; dr < m.Shape.R; dr++ {
				for dc := 0; dc < m.Shape.C; dc++ {
					v := m.Val[base+int64(dr*m.Shape.C+dc)]
					if v != 0 {
						out.RowIdx = append(out.RowIdx, int32(r0+dr))
						out.ColIdx = append(out.ColIdx, int32(c0+dc))
						out.Val = append(out.Val, v)
					}
				}
			}
		}
	}
	return out
}

// BCOO is block-coordinate storage: like BCSR but with an explicit (tile
// row, tile col) pair per tile and no row-pointer array. The paper selects
// it when a cache block has many empty rows, where CSR row pointers waste
// storage and zero-length loop iterations.
type BCOO[I Index] struct {
	R, C  int
	Shape BlockShape
	BRow  []I
	BCol  []I
	Val   []float64
	nnz   int64
}

// NewBCOO register-blocks a CSR matrix into block-coordinate form. Both the
// tile row and tile column index must fit the index type.
func NewBCOO[I Index](src *CSR32, shape BlockShape) (*BCOO[I], error) {
	if err := checkTiling[I](src, shape, true); err != nil {
		return nil, err
	}
	rowPtr, bcol, val := tile[I](src, shape)
	brow := make([]I, len(bcol))
	for br := range len(rowPtr) - 1 {
		for t := rowPtr[br]; t < rowPtr[br+1]; t++ {
			brow[t] = I(br)
		}
	}
	return &BCOO[I]{
		R: src.R, C: src.C, Shape: shape,
		BRow: brow, BCol: bcol, Val: val,
		nnz: src.NNZ(),
	}, nil
}

// Dims implements Format.
func (m *BCOO[I]) Dims() (int, int) { return m.R, m.C }

// NNZ implements Format.
func (m *BCOO[I]) NNZ() int64 { return m.nnz }

// Stored implements Format, counting explicit zero fill.
func (m *BCOO[I]) Stored() int64 { return int64(len(m.Val)) }

// Blocks returns the number of stored tiles.
func (m *BCOO[I]) Blocks() int64 { return int64(len(m.BCol)) }

// FootprintBytes implements Format: tile values + two indices per tile.
func (m *BCOO[I]) FootprintBytes() int64 {
	return int64(len(m.Val))*8 + 2*m.Blocks()*IndexBytes[I]()
}

// FormatName implements Format.
func (m *BCOO[I]) FormatName() string {
	return fmt.Sprintf("BCOO %v /%d", m.Shape, 8*IndexBytes[I]())
}

// ToCOO expands back to coordinate form, dropping explicit zero fill.
func (m *BCOO[I]) ToCOO() *COO {
	out := NewCOO(m.R, m.C)
	area := m.Shape.Area()
	for t := range m.BCol {
		base := int64(t) * int64(area)
		r0 := int(m.BRow[t]) * m.Shape.R
		c0 := int(m.BCol[t]) * m.Shape.C
		for dr := 0; dr < m.Shape.R; dr++ {
			for dc := 0; dc < m.Shape.C; dc++ {
				v := m.Val[base+int64(dr*m.Shape.C+dc)]
				if v != 0 {
					out.RowIdx = append(out.RowIdx, int32(r0+dr))
					out.ColIdx = append(out.ColIdx, int32(c0+dc))
					out.Val = append(out.Val, v)
				}
			}
		}
	}
	return out
}
