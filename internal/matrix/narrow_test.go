package matrix_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// TestNarrowCSRMatchesRoundTrip holds NarrowCSR to the COO round trip it
// replaces, field for field, on every suite twin (all under 65 536
// columns at scale 0.01; TestCSR16Overflow covers wider): each twin gets a
// duplicate of every 7th entry (summed by the CSR32 build) and every 5th
// row emptied, so both shapes reach the narrowing.
func TestNarrowCSRMatchesRoundTrip(t *testing.T) {
	for _, spec := range gen.Suite {
		coo, err := gen.Generate(spec, 0.01, 3)
		if err != nil {
			t.Fatal(err)
		}
		edited := matrix.NewCOO(coo.R, coo.C)
		for k := range coo.Val {
			r, c, v := coo.RowIdx[k], coo.ColIdx[k], coo.Val[k]
			if r%5 == 0 {
				continue
			}
			edited.RowIdx = append(edited.RowIdx, r)
			edited.ColIdx = append(edited.ColIdx, c)
			edited.Val = append(edited.Val, v)
			if k%7 == 0 {
				edited.RowIdx = append(edited.RowIdx, r)
				edited.ColIdx = append(edited.ColIdx, c)
				edited.Val = append(edited.Val, v/3)
			}
		}
		src, err := matrix.NewCSR[uint32](edited)
		if err != nil {
			t.Fatal(err)
		}
		want, err := matrix.NewCSR[uint16](src.ToCOO())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got, err := matrix.NarrowCSR(src)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got.R != want.R || got.C != want.C ||
			!slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) ||
			!slices.EqualFunc(got.Val, want.Val, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: NarrowCSR differs from NewCSR[uint16](src.ToCOO())", spec.Name)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}
