package oski

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/partition"
)

func loadCSR(t *testing.T, name string, scale float64) *matrix.CSR32 {
	t.Helper()
	m, err := gen.GenerateByName(name, scale, 77)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := matrix.NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

func TestTuneSerialBlocksFEM(t *testing.T) {
	csr := loadCSR(t, "FEM/Cantilever", 0.01)
	tn, err := TuneSerial(csr, machine.AMDX2())
	if err != nil {
		t.Fatal(err)
	}
	if tn.Shape.Area() <= 1 {
		t.Errorf("OSKI left a FEM matrix unblocked (shape %v)", tn.Shape)
	}
	if tn.FillTrue > 1.5 {
		t.Errorf("OSKI accepted fill %.2f on a blockable matrix", tn.FillTrue)
	}
	// OSKI always uses 32-bit indices.
	if _, ok := tn.Enc.(*matrix.BCSR[uint32]); !ok {
		t.Errorf("encoding %T, want BCSR[uint32]", tn.Enc)
	}
}

func TestTuneSerialKeepsCSRForScatter(t *testing.T) {
	csr := loadCSR(t, "webbase", 0.01)
	tn, err := TuneSerial(csr, machine.AMDX2())
	if err != nil {
		t.Fatal(err)
	}
	// A power-law graph has no tile structure: fill for any real block is
	// ruinous and the search must fall back to CSR.
	if tn.Shape.Area() != 1 {
		t.Errorf("OSKI chose %v (est fill %.2f) for webbase, want 1x1", tn.Shape, tn.FillEst)
	}
	if tn.Enc != csr {
		t.Errorf("expected the CSR encoding to be returned unchanged")
	}
}

func TestFillEstimateTracksTruth(t *testing.T) {
	for _, name := range []string{"FEM/Harbor", "Economics", "QCD"} {
		csr := loadCSR(t, name, 0.01)
		for _, shape := range []matrix.BlockShape{{R: 2, C: 2}, {R: 4, C: 4}} {
			est := estimateFill(csr, shape, SampleFraction)
			b, err := matrix.NewBCSR[uint32](csr, shape)
			if err != nil {
				t.Fatal(err)
			}
			truth := b.FillRatio()
			if est < truth*0.7 || est > truth*1.3 {
				t.Errorf("%s %v: sampled fill %.2f vs true %.2f", name, shape, est, truth)
			}
		}
	}
}

func TestSerialEstimateRuns(t *testing.T) {
	csr := loadCSR(t, "FEM/Ship", 0.01)
	for _, m := range []*machine.Machine{machine.AMDX2(), machine.Clovertown(), machine.Niagara()} {
		est, tn, err := SerialEstimate(csr, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if est.GFlops <= 0 || tn == nil {
			t.Errorf("%s: estimate %+v", m.Name, est)
		}
	}
}

func TestPETScCommGrowsWithProcesses(t *testing.T) {
	csr := loadCSR(t, "FEM/Spheres", 0.01)
	m := machine.AMDX2()
	e1, err := ModelPETSc(csr, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := ModelPETSc(csr, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e1.CommSec != 0 {
		t.Errorf("single process should have zero comm, got %g", e1.CommSec)
	}
	if e4.CommSec <= 0 || e4.CommBytes <= 0 {
		t.Errorf("4-process comm missing: %+v", e4)
	}
	if e4.CommFraction <= 0.05 {
		t.Errorf("comm fraction %.2f, expected noticeable copy overhead", e4.CommFraction)
	}
}

func TestPETScLPCommDominates(t *testing.T) {
	// §6.2: communication is up to 56% of execution time for LP — its
	// source vector is enormous and almost all of it is off-process.
	csr := loadCSR(t, "LP", 0.02)
	e, err := ModelPETSc(csr, machine.AMDX2(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.CommFraction < 0.3 {
		t.Errorf("LP comm fraction %.2f, paper reports up to 0.56", e.CommFraction)
	}
}

func TestPETScEqualRowsImbalance(t *testing.T) {
	// Build a skewed matrix: top quarter of rows hold most nonzeros, the
	// FEM-Accel failure mode (one process with 40% of nonzeros).
	m := matrix.NewCOO(4000, 4000)
	for i := 0; i < 1000; i++ {
		for j := 0; j < 20; j++ {
			_ = m.Append(i, (i*31+j*97)%4000, 1)
		}
	}
	for i := 1000; i < 4000; i++ {
		_ = m.Append(i, i, 1)
	}
	csr, _ := matrix.NewCSR[uint32](m)
	e, err := ModelPETSc(csr, machine.AMDX2(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.MaxNNZShare < 0.4 {
		t.Errorf("max nnz share %.2f, want >= 0.4 for skewed equal-rows", e.MaxNNZShare)
	}
}

func TestBestPETScPicksFastest(t *testing.T) {
	csr := loadCSR(t, "FEM/Harbor", 0.01)
	m := machine.Clovertown()
	best, err := BestPETSc(csr, m)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 8; p *= 2 {
		e, err := ModelPETSc(csr, m, p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Seconds < best.Seconds {
			t.Errorf("BestPETSc %d procs (%.3gs) beaten by %d procs (%.3gs)",
				best.Processes, best.Seconds, p, e.Seconds)
		}
	}
}

func TestModelPETScValidation(t *testing.T) {
	csr := loadCSR(t, "QCD", 0.01)
	if _, err := ModelPETSc(csr, machine.AMDX2(), 0); err == nil {
		t.Error("zero processes accepted")
	}
}

func TestExternalColumns(t *testing.T) {
	// Rows [0,2) of a 4x4: references to cols 2,3 are external.
	m := matrix.NewCOO(2, 4)
	_ = m.Append(0, 0, 1)
	_ = m.Append(0, 2, 1)
	_ = m.Append(1, 3, 1)
	_ = m.Append(1, 2, 1)
	csr, _ := matrix.NewCSR[uint32](m)
	if got := externalColumns(csr, 0, 2); got != 2 {
		t.Errorf("external columns %d, want 2", got)
	}
}

func TestPETScCommBytesCountDistinctGhosts(t *testing.T) {
	// The model charges 2x8 bytes (pack+unpack) per distinct column a
	// process references outside its own rows. Count them here with a map
	// of our own, so a model that double-counts repeated columns fails.
	csr := loadCSR(t, "Economics", 0.005)
	if csr.R != csr.C {
		t.Fatalf("Economics twin is %dx%d, want square", csr.R, csr.C)
	}
	for _, procs := range []int{1, 2, 4, 8} {
		part, err := partition.EqualRows(csr.RowPtr, procs)
		if err != nil {
			t.Fatal(err)
		}
		var ghosts int64
		for _, r := range part.Ranges {
			seen := make(map[uint32]bool)
			for k := csr.RowPtr[r.Lo]; k < csr.RowPtr[r.Hi]; k++ {
				if c := int(csr.Col[k]); c < r.Lo || c >= r.Hi {
					seen[csr.Col[k]] = true
				}
			}
			ghosts += int64(len(seen))
		}
		if procs > 1 && ghosts == 0 {
			t.Fatalf("%d processes: no ghost columns on a scatter matrix", procs)
		}
		e, err := ModelPETSc(csr, machine.AMDX2(), procs)
		if err != nil {
			t.Fatal(err)
		}
		if e.CommBytes != 16*ghosts {
			t.Errorf("%d processes: comm bytes %d, want %d (16 per distinct ghost column)",
				procs, e.CommBytes, 16*ghosts)
		}
	}
}

func TestTuneSerialBandsMultiplyLikeCSR(t *testing.T) {
	// OSKI-PETSc tunes each process's row band on its own. Every band's
	// encoding, compiled, must multiply like the CSR rows it came from.
	csr := loadCSR(t, "FEM/Cantilever", 0.01)
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, csr.C)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	part, err := partition.EqualRows(csr.RowPtr, 4)
	if err != nil {
		t.Fatal(err)
	}
	blocked := 0
	for _, r := range part.Ranges {
		band := csr.Submatrix(r.Lo, r.Hi, 0, csr.C)
		tn, err := TuneSerial(band, machine.AMDX2())
		if err != nil {
			t.Fatal(err)
		}
		if tn.Shape.Area() > 1 {
			blocked++
		}
		k, err := kernel.Compile(tn.Enc)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, r.Rows())
		if err := k.MulAdd(y, x); err != nil {
			t.Fatal(err)
		}
		for i := r.Lo; i < r.Hi; i++ {
			var want float64
			for p := csr.RowPtr[i]; p < csr.RowPtr[i+1]; p++ {
				want += csr.Val[p] * x[csr.Col[p]]
			}
			if got := y[i-r.Lo]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("band [%d,%d) %s row %d: %g, want %g", r.Lo, r.Hi, k.Name(), i, got, want)
			}
		}
	}
	if blocked == 0 {
		t.Error("OSKI left every Cantilever band unblocked; no tile was multiplied")
	}
}
