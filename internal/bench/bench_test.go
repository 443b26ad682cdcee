package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
)

// testRunner uses a small scale so the full suite evaluates in seconds
// while preserving the structural relationships the shape checks assert.
func testRunner() *Runner { return NewRunner(0.02, 7) }

func cell(t *testing.T, tb *Table, rowKey, col string) float64 {
	t.Helper()
	s, ok := tb.Lookup(rowKey, col)
	if !ok {
		t.Fatalf("no cell (%q, %q) in %q; header %v", rowKey, col, tb.Title, tb.Header)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%q,%q) = %q: %v", rowKey, col, s, err)
	}
	return v
}

// skipInShort gates the experiment-harness evaluations (tens of seconds
// of modeled-hardware sweeps) out of -short runs; structural/render tests
// stay.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full experiment-harness evaluation; skipped with -short")
	}
}

func TestTable1Renders(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 5 {
		t.Fatalf("%d machines", len(tb.Rows))
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"AMD X2", "Clovertown", "Niagara", "Cell Blade", "3.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
	if err := tb.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable2Renders(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) < 15 {
		t.Errorf("Table 2 has %d optimization rows", len(tb.Rows))
	}
}

func TestTable3MatchesSpecs(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	tb, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 14 {
		t.Fatalf("%d suite rows, want 14", len(tb.Rows))
	}
	// Spot check: LP keeps its aspect ratio at small scale.
	rows := cell(t, tb, "LP", "Gen Rows")
	cols := cell(t, tb, "LP", "Gen Cols")
	if cols < rows*50 {
		t.Errorf("LP twin %gx%g lost its aspect ratio", rows, cols)
	}
}

// TestTable4Shape checks the relationships the paper highlights rather
// than absolute values (those are asserted against Table 4 in perf tests).
func TestTable4Shape(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	tb, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	// Cell blade sustains the most system bandwidth.
	bladeBW := cell(t, tb, "Cell Blade", "GB/s system")
	for _, m := range []string{"AMD X2", "Clovertown", "Niagara"} {
		if bw := cell(t, tb, m, "GB/s system"); bw >= bladeBW {
			t.Errorf("%s system BW %.2f >= Cell blade %.2f", m, bw, bladeBW)
		}
	}
	// Niagara single-thread bandwidth is by far the worst.
	niCore := cell(t, tb, "Niagara", "GB/s 1core")
	for _, m := range []string{"AMD X2", "Clovertown", "Cell (PS3)"} {
		if bw := cell(t, tb, m, "GB/s 1core"); bw <= niCore {
			t.Errorf("%s 1-core BW %.2f <= Niagara %.2f", m, bw, niCore)
		}
	}
	// AMD X2 and Clovertown sustain nearly identical socket Gflop/s
	// despite the 4.2x peak gap (§6.1: "almost identical computational
	// rates for a full socket").
	amd := cell(t, tb, "AMD X2", "Gflop/s socket")
	cl := cell(t, tb, "Clovertown", "Gflop/s socket")
	if ratio := amd / cl; ratio < 0.6 || ratio > 1.7 {
		t.Errorf("AMD %.2f vs Clovertown %.2f socket Gflop/s: ratio %.2f, paper says ~1.0",
			amd, cl, ratio)
	}
}

func TestFigure1AMDShape(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	tb, err := r.Figure1(machine.AMDX2())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 15 { // 14 matrices + median
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Optimization ladder is monotone for the median.
	naive := cell(t, tb, "Median", "1 core naive")
	pf := cell(t, tb, "Median", "1 core [PF]")
	rb := cell(t, tb, "Median", "1 core [PF,RB]")
	two := cell(t, tb, "Median", "2 cores [*]")
	full := cell(t, tb, "Median", "2 sockets x 2 cores [*]")
	if !(pf > naive) {
		t.Errorf("PF %.3f not above naive %.3f", pf, naive)
	}
	if !(rb >= pf) {
		t.Errorf("RB %.3f below PF %.3f", rb, pf)
	}
	if !(two > rb && full > two) {
		t.Errorf("parallel scaling broken: %.3f %.3f %.3f", rb, two, full)
	}
	// Our full system beats OSKI-PETSc by a large factor (paper: 3.2x).
	petsc := cell(t, tb, "Median", "OSKI-PETSc")
	if full/petsc < 1.5 {
		t.Errorf("full system %.3f only %.1fx OSKI-PETSc %.3f, paper says 3.2x",
			full, full/petsc, petsc)
	}
	// Serial optimized beats serial OSKI (paper: 1.2x).
	oski := cell(t, tb, "Median", "OSKI")
	cb := cell(t, tb, "Median", "1 core [PF,RB,CB]")
	if cb <= oski {
		t.Errorf("optimized serial %.3f not above OSKI %.3f", cb, oski)
	}
	// FEM-Ship gains from register blocking; LP gains from cache blocking.
	shipPF := cell(t, tb, "FEM/Ship", "1 core [PF]")
	shipRB := cell(t, tb, "FEM/Ship", "1 core [PF,RB]")
	if shipRB/shipPF < 1.1 {
		t.Errorf("FEM/Ship RB gain %.2fx, want > 1.1x", shipRB/shipPF)
	}
	// LP gains from cache blocking — but only once its source vector
	// exceeds the cache, which needs a larger scale than the rest of this
	// test (at paper scale the LP working set is 6-8MB, §5.1).
	rBig := NewRunner(0.08, 7)
	mAMD := machine.AMDX2()
	cfgSerial := perfConfig(mAMD, 1, 1, 1, LevelPFRB)
	lpRB, err := rBig.Evaluate("LP", cfgSerial, LevelPFRB)
	if err != nil {
		t.Fatal(err)
	}
	cfgCB := perfConfig(mAMD, 1, 1, 1, LevelPFRBCB)
	lpCB, err := rBig.Evaluate("LP", cfgCB, LevelPFRBCB)
	if err != nil {
		t.Fatal(err)
	}
	if lpCB.GFlops/lpRB.GFlops < 1.1 {
		t.Errorf("LP CB gain %.2fx, want > 1.1x", lpCB.GFlops/lpRB.GFlops)
	}
	// Short-row matrices perform poorly everywhere (paper §5.1): webbase
	// below the suite median at full system.
	web := cell(t, tb, "webbase", "2 sockets x 2 cores [*]")
	if web >= full {
		t.Errorf("webbase %.3f not below median %.3f", web, full)
	}
}

func TestFigure1NiagaraShape(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	tb, err := r.Figure1(machine.Niagara())
	if err != nil {
		t.Fatal(err)
	}
	opt1 := cell(t, tb, "Median", "1 thread [opt]")
	t8 := cell(t, tb, "Median", "8c x 1t [*]")
	t16 := cell(t, tb, "Median", "8c x 2t [*]")
	t32 := cell(t, tb, "Median", "8c x 4t [*]")
	if !(t8 > opt1 && t16 > t8 && t32 > t16) {
		t.Errorf("Niagara thread scaling broken: %.3f %.3f %.3f %.3f", opt1, t8, t16, t32)
	}
	s32 := t32 / opt1
	if s32 < 10 || s32 > 30 {
		t.Errorf("32-thread speedup %.1fx, paper says 21.2x", s32)
	}
	// Naive vs optimized single thread: ~15% (paper §6.4).
	naive := cell(t, tb, "Median", "1 thread naive")
	if gain := opt1 / naive; gain < 1.05 || gain > 1.8 {
		t.Errorf("serial optimization gain %.2fx, paper says ~1.15x", gain)
	}
}

func TestFigure1CellShape(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	ps3, err := r.Figure1(machine.CellPS3())
	if err != nil {
		t.Fatal(err)
	}
	blade, err := r.Figure1(machine.CellBlade())
	if err != nil {
		t.Fatal(err)
	}
	one := cell(t, ps3, "Median", "1 SPE")
	six := cell(t, ps3, "Median", "6 SPEs")
	eight := cell(t, blade, "Median", "8 SPEs")
	sixteen := cell(t, blade, "Median", "16 SPEs")
	if !(six > one && eight > six*0.8 && sixteen > eight) {
		t.Errorf("Cell scaling broken: %.3f %.3f %.3f %.3f", one, six, eight, sixteen)
	}
	if s := six / one; s < 3.5 || s > 7 {
		t.Errorf("PS3 6-SPE speedup %.1fx, paper says 5.7x", s)
	}
	// Economics/Circuit heavily penalized on Cell (short rows, §6.5):
	// below the Cell median by a wide margin.
	econ := cell(t, blade, "Economics", "16 SPEs")
	if econ > sixteen*0.7 {
		t.Errorf("Economics %.3f not clearly below Cell median %.3f", econ, sixteen)
	}
}

func TestFigure2aShape(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	tb, err := r.Figure2a()
	if err != nil {
		t.Fatal(err)
	}
	// Cell blade fastest full system; Niagara slowest of the full systems
	// except possibly nothing (paper: "significantly outperforms").
	blade := cell(t, tb, "Cell Blade", "full system")
	for _, m := range []string{"AMD X2", "Clovertown", "Niagara"} {
		if v := cell(t, tb, m, "full system"); v >= blade {
			t.Errorf("%s full system %.3f >= Cell blade %.3f", m, v, blade)
		}
	}
	// Clovertown does not beat AMD at full system despite 4.2x peak.
	cl := cell(t, tb, "Clovertown", "full system")
	amd := cell(t, tb, "AMD X2", "full system")
	if cl > amd*1.2 {
		t.Errorf("Clovertown %.3f above AMD %.3f at full system; paper says it is slower", cl, amd)
	}
}

func TestFigure2bShape(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	tb, err := r.Figure2b()
	if err != nil {
		t.Fatal(err)
	}
	blade := cell(t, tb, "Cell Blade", "Mflop/s per Watt")
	ps3 := cell(t, tb, "Cell (PS3)", "Mflop/s per Watt")
	ni := cell(t, tb, "Niagara", "Mflop/s per Watt")
	amd := cell(t, tb, "AMD X2", "Mflop/s per Watt")
	cl := cell(t, tb, "Clovertown", "Mflop/s per Watt")
	if !(blade > amd && blade > cl && blade > ni) {
		t.Error("Cell blade not the power-efficiency leader")
	}
	if !(ps3 > amd*0.8) {
		t.Errorf("PS3 efficiency %.2f not near-comparable to AMD %.2f", ps3, amd)
	}
	if !(ni < amd && ni < cl && ni < blade && ni < ps3) {
		t.Error("Niagara not the lowest power efficiency (paper: it is)")
	}
}

func TestSpeedupsTable(t *testing.T) {
	skipInShort(t)
	r := testRunner()
	tb, err := r.Speedups()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 15 {
		t.Fatalf("%d speedup rows", len(tb.Rows))
	}
	// Every measured ratio must parse and be positive.
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[2], "x"), 64)
		if err != nil || v <= 0 {
			t.Errorf("row %q: measured %q", row[0], row[2])
		}
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("empty median")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median")
	}
}

func TestOptLevelStrings(t *testing.T) {
	for l := LevelNaive; l <= LevelPFRBCB; l++ {
		if l.String() == "" {
			t.Errorf("level %d unnamed", int(l))
		}
	}
}

// TestExperimentsRegistry pins the list spmv-bench iterates: the twelve
// experiments in report order, each with a constructor and the shape
// targets spmv-bench prints under its table.
func TestExperimentsRegistry(t *testing.T) {
	want := "table1 table2 table3 table4 figure1-amd figure1-clovertown figure1-niagara " +
		"figure1-ps3 figure1-blade figure2a figure2b speedups"
	var names []string
	for _, e := range Experiments {
		names = append(names, e.Name)
		if e.Build == nil || len(e.Targets) == 0 {
			t.Errorf("%s: constructor or shape targets missing", e.Name)
		}
	}
	if got := strings.Join(names, " "); got != want {
		t.Errorf("experiments %q, want %q", got, want)
	}
}
