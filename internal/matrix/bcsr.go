package matrix

import (
	"fmt"
	"slices"
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
	if !shape.valid() {
		return nil, fmt.Errorf("matrix: unsupported block shape %v", shape)
	}
	bcols := (src.C + shape.C - 1) / shape.C
	if bcols > MaxIndex[I]()+1 {
		return nil, fmt.Errorf("%w: %d tile columns with %d-byte indices",
			ErrIndexOverflow, bcols, IndexBytes[I]())
	}
	brows := (src.R + shape.R - 1) / shape.R
	out := &BCSR[I]{
		R:         src.R,
		C:         src.C,
		Shape:     shape,
		BlockRows: brows,
		RowPtr:    make([]int64, brows+1),
		nnz:       src.NNZ(),
	}
	area := shape.Area()
	// Per tile row: collect the distinct tile columns its scalar rows touch
	// (slot marks a tile column seen in this tile row), sort them, give
	// each its tile, then scatter the values into the zero-filled tiles.
	slot := make([]int, bcols)
	for i := range slot {
		slot[i] = -1
	}
	var bcs []int
	for br := 0; br < brows; br++ {
		r0 := br * shape.R
		r1 := min(r0+shape.R, src.R)
		cols := src.Col[src.RowPtr[r0]:src.RowPtr[r1]]
		bcs = bcs[:0]
		for _, j := range cols {
			if bc := int(j) / shape.C; slot[bc] < 0 {
				slot[bc] = 0
				bcs = append(bcs, bc)
			}
		}
		slices.Sort(bcs)
		first := len(out.BCol)
		for t, bc := range bcs {
			slot[bc] = first + t
			out.BCol = append(out.BCol, I(bc))
		}
		out.Val = append(out.Val, make([]float64, len(bcs)*area)...)
		for i := r0; i < r1; i++ {
			for k := src.RowPtr[i]; k < src.RowPtr[i+1]; k++ {
				j := int(src.Col[k])
				bc := j / shape.C
				out.Val[slot[bc]*area+(i-r0)*shape.C+j-bc*shape.C] = src.Val[k]
			}
		}
		for _, bc := range bcs {
			slot[bc] = -1
		}
		out.RowPtr[br+1] = int64(len(out.BCol))
	}
	return out, nil
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
	b, err := NewBCSR[I](src, shape)
	if err != nil {
		return nil, err
	}
	if b.BlockRows > MaxIndex[I]()+1 {
		return nil, fmt.Errorf("%w: %d tile rows with %d-byte indices",
			ErrIndexOverflow, b.BlockRows, IndexBytes[I]())
	}
	out := &BCOO[I]{
		R:     src.R,
		C:     src.C,
		Shape: shape,
		BRow:  make([]I, 0, b.Blocks()),
		BCol:  append([]I(nil), b.BCol...),
		Val:   b.Val,
		nnz:   src.NNZ(),
	}
	for br := 0; br < b.BlockRows; br++ {
		for t := b.RowPtr[br]; t < b.RowPtr[br+1]; t++ {
			out.BRow = append(out.BRow, I(br))
		}
	}
	return out, nil
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
