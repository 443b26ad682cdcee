package perf

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/partition"
	"repro/internal/traffic"
)

// denseSummaries builds per-thread traffic summaries for the Table-4 dense
// matrix at a reduced scale (traffic ratios are scale-invariant for the
// dense case once indices are chosen).
func denseSummaries(t *testing.T, cfg Config, threads int, scale float64) []traffic.Summary {
	t.Helper()
	m, err := gen.GenerateByName("Dense", scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := matrix.NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.ByNNZ(csr.RowPtr, threads)
	if err != nil {
		t.Fatal(err)
	}
	opt := TrafficOptions(cfg)
	var out []traffic.Summary
	for _, r := range part.Ranges {
		subCSR := csr.Submatrix(r.Lo, r.Hi, 0, csr.C)
		// Dense register-blocks perfectly: 4x4 with 16-bit indices, the
		// encoding the tuner picks for dense2.
		b, err := matrix.NewBCSR[uint16](subCSR, matrix.BlockShape{R: 4, C: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := traffic.Analyze(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

// TestTable4SustainedBandwidthRule verifies the "per-thread streams add up
// to the socket ceiling" rule reproduces every GB/s cell of Table 4.
func TestTable4SustainedBandwidthRule(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want float64 // GB/s
		tol  float64
	}{
		{"amd-1core", Config{M: machine.AMDX2(), CoresPerSocketUsed: 1, SocketsUsed: 1, SoftwarePrefetch: true}, 5.40, 0.2},
		{"amd-socket", Config{M: machine.AMDX2(), CoresPerSocketUsed: 2, SocketsUsed: 1, SoftwarePrefetch: true}, 6.61, 0.2},
		{"amd-system", Config{M: machine.AMDX2(), CoresPerSocketUsed: 2, SocketsUsed: 2, NUMAAware: true, SoftwarePrefetch: true}, 12.55, 0.7},
		{"clover-1core", Config{M: machine.Clovertown(), CoresPerSocketUsed: 1, SocketsUsed: 1, SoftwarePrefetch: true}, 3.62, 0.2},
		{"clover-socket", Config{M: machine.Clovertown(), CoresPerSocketUsed: 4, SocketsUsed: 1, SoftwarePrefetch: true}, 6.56, 0.2},
		{"clover-system", Config{M: machine.Clovertown(), CoresPerSocketUsed: 4, SocketsUsed: 2, SoftwarePrefetch: true}, 8.86, 0.3},
		{"niagara-1thread", Config{M: machine.Niagara(), CoresPerSocketUsed: 1, SocketsUsed: 1, ThreadsPerCoreUsed: 1}, 0.26, 0.05},
		{"niagara-8c1t", Config{M: machine.Niagara(), CoresPerSocketUsed: 8, SocketsUsed: 1, ThreadsPerCoreUsed: 1}, 2.06, 0.1},
		{"niagara-32t", Config{M: machine.Niagara(), CoresPerSocketUsed: 8, SocketsUsed: 1, ThreadsPerCoreUsed: 4}, 5.02, 0.2},
		{"ps3-1spe", Config{M: machine.CellPS3(), CoresPerSocketUsed: 1, SocketsUsed: 1}, 3.25, 0.1},
		{"ps3-6spe", Config{M: machine.CellPS3(), CoresPerSocketUsed: 6, SocketsUsed: 1}, 18.35, 0.3},
		{"blade-8spe", Config{M: machine.CellBlade(), CoresPerSocketUsed: 8, SocketsUsed: 1}, 23.20, 0.3},
		{"blade-16spe", Config{M: machine.CellBlade(), CoresPerSocketUsed: 8, SocketsUsed: 2, NUMAAware: true}, 31.50, 0.4},
	}
	for _, c := range cases {
		if got := SustainedGBs(c.cfg); math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: sustained %.2f GB/s, Table 4 says %.2f", c.name, got, c.want)
		}
	}
}

// TestDenseComputationalRates checks the model's Gflop/s for the dense
// matrix against Table 4's sustained computational rates.
func TestDenseComputationalRates(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		threads int
		want    float64
		tol     float64
	}{
		{"amd-1core", Config{M: machine.AMDX2(), CoresPerSocketUsed: 1, SocketsUsed: 1, SoftwarePrefetch: true, OptimizedKernel: true}, 1, 1.33, 0.35},
		{"amd-socket", Config{M: machine.AMDX2(), CoresPerSocketUsed: 2, SocketsUsed: 1, SoftwarePrefetch: true, OptimizedKernel: true}, 2, 1.63, 0.4},
		{"amd-system", Config{M: machine.AMDX2(), CoresPerSocketUsed: 2, SocketsUsed: 2, NUMAAware: true, SoftwarePrefetch: true, OptimizedKernel: true}, 4, 3.09, 0.8},
		{"clover-1core", Config{M: machine.Clovertown(), CoresPerSocketUsed: 1, SocketsUsed: 1, SoftwarePrefetch: true, OptimizedKernel: true}, 1, 0.89, 0.25},
		{"clover-system", Config{M: machine.Clovertown(), CoresPerSocketUsed: 4, SocketsUsed: 2, SoftwarePrefetch: true, OptimizedKernel: true}, 8, 2.18, 0.6},
		{"niagara-1thread", Config{M: machine.Niagara(), CoresPerSocketUsed: 1, SocketsUsed: 1, ThreadsPerCoreUsed: 1, OptimizedKernel: true}, 1, 0.065, 0.03},
		{"niagara-32t", Config{M: machine.Niagara(), CoresPerSocketUsed: 8, SocketsUsed: 1, ThreadsPerCoreUsed: 4, OptimizedKernel: true}, 32, 1.24, 0.45},
		{"ps3-6spe", Config{M: machine.CellPS3(), CoresPerSocketUsed: 6, SocketsUsed: 1, OptimizedKernel: true}, 6, 3.67, 1.0},
		{"blade-16spe", Config{M: machine.CellBlade(), CoresPerSocketUsed: 8, SocketsUsed: 2, NUMAAware: true, OptimizedKernel: true}, 16, 6.30, 1.6},
	}
	for _, c := range cases {
		sums := denseSummaries(t, c.cfg, c.threads, 0.5)
		est, err := Model(c.cfg, sums)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(est.GFlops-c.want) > c.tol {
			t.Errorf("%s: %.2f Gflop/s (bound=%s), Table 4 says %.2f",
				c.name, est.GFlops, est.Bound, c.want)
		}
	}
}

// TestNiagaraSingleThreadLatencyBound: §6.1 derives 29-46 Mflop/s for 1x1
// CSR on one Niagara thread; the model must land in that window and report
// the stall bound.
func TestNiagaraSingleThreadLatencyBound(t *testing.T) {
	cfg := Config{M: machine.Niagara(), CoresPerSocketUsed: 1, SocketsUsed: 1, ThreadsPerCoreUsed: 1}
	m, err := gen.GenerateByName("FEM/Harbor", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := matrix.NewCSR[uint32](m)
	s, err := traffic.Analyze(csr, TrafficOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	est, err := Model(cfg, []traffic.Summary{s})
	if err != nil {
		t.Fatal(err)
	}
	if est.GFlops < 0.025 || est.GFlops > 0.055 {
		t.Errorf("Niagara single thread %.1f Mflop/s, paper derives 29-46", est.GFlops*1e3)
	}
	// A single Niagara thread is latency-limited; in the model that shows
	// up as the stall term and the (latency-calibrated) single-thread
	// bandwidth term being of the same magnitude, either of which may bind.
	if est.Bound != "stall" && est.Bound != "dram" {
		t.Errorf("bound %q, want stall or dram", est.Bound)
	}
	if est.StallSec < 0.5*est.Seconds {
		t.Errorf("stall term %.3g not comparable to total %.3g", est.StallSec, est.Seconds)
	}
}

// TestNiagaraThreadScaling reproduces the §6.4 scaling claim: 7.6x, 13.8x,
// 21.2x for 8c1t, 8c2t, 8c4t over one optimized thread (tolerances wide:
// the claim is the shape, near-linear then saturating).
func TestNiagaraThreadScaling(t *testing.T) {
	m, err := gen.GenerateByName("FEM/Ship", 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	csr, _ := matrix.NewCSR[uint32](m)

	run := func(cores, tpc int) float64 {
		cfg := Config{M: machine.Niagara(), CoresPerSocketUsed: cores, SocketsUsed: 1,
			ThreadsPerCoreUsed: tpc, OptimizedKernel: true}
		threads := cores * tpc
		part, err := partition.ByNNZ(csr.RowPtr, threads)
		if err != nil {
			t.Fatal(err)
		}
		opt := TrafficOptions(cfg)
		var sums []traffic.Summary
		for _, r := range part.Ranges {
			subCSR := csr.Submatrix(r.Lo, r.Hi, 0, csr.C)
			s, err := traffic.Analyze(subCSR, opt)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, s)
		}
		est, err := Model(cfg, sums)
		if err != nil {
			t.Fatal(err)
		}
		return est.GFlops
	}

	single := run(1, 1)
	s8 := ratio(run(8, 1), single)
	s16 := ratio(run(8, 2), single)
	s32 := ratio(run(8, 4), single)
	if s8 < 5 || s8 > 9 {
		t.Errorf("8c1t speedup %.1fx, paper says 7.6x", s8)
	}
	if s16 < 10 || s16 > 17 {
		t.Errorf("8c2t speedup %.1fx, paper says 13.8x", s16)
	}
	if s32 < 15 || s32 > 27 {
		t.Errorf("8c4t speedup %.1fx, paper says 21.2x", s32)
	}
	if !(s32 > s16 && s16 > s8) {
		t.Errorf("scaling not monotone: %.1f %.1f %.1f", s8, s16, s32)
	}
}

// TestNUMAAwarenessMatters: on the AMD X2, ignoring memory affinity must
// cost roughly half the full-system bandwidth.
func TestNUMAAwarenessMatters(t *testing.T) {
	aware := Config{M: machine.AMDX2(), CoresPerSocketUsed: 2, SocketsUsed: 2,
		NUMAAware: true, SoftwarePrefetch: true}
	blind := aware
	blind.NUMAAware = false
	ba, bb := SustainedGBs(aware), SustainedGBs(blind)
	if r := ba / bb; r < 1.5 || r > 2.5 {
		t.Errorf("NUMA-aware %.1f vs blind %.1f GB/s: ratio %.2f, want ~1.9", ba, bb, r)
	}
}

// TestClovertownSocketToSystemBarelyScales: §6.3/6.6 — doubling sockets
// rarely increases Clovertown bandwidth (8.86 vs 6.56 GB/s).
func TestClovertownSocketToSystemBarelyScales(t *testing.T) {
	socket := Config{M: machine.Clovertown(), CoresPerSocketUsed: 4, SocketsUsed: 1, SoftwarePrefetch: true}
	system := socket
	system.SocketsUsed = 2
	r := SustainedGBs(system) / SustainedGBs(socket)
	if r > 1.5 {
		t.Errorf("Clovertown socket->system bandwidth scaled %.2fx, paper says ~1.35x", r)
	}
}

// TestPrefetchHelpsAMDNotClovertown: §6.2 vs §6.3.
func TestPrefetchHelpsAMDNotClovertown(t *testing.T) {
	amdPF := Config{M: machine.AMDX2(), CoresPerSocketUsed: 1, SocketsUsed: 1, SoftwarePrefetch: true}
	amdNo := amdPF
	amdNo.SoftwarePrefetch = false
	if r := SustainedGBs(amdPF) / SustainedGBs(amdNo); r < 1.3 {
		t.Errorf("AMD prefetch gain %.2fx, want >= 1.3x", r)
	}
	clPF := Config{M: machine.Clovertown(), CoresPerSocketUsed: 1, SocketsUsed: 1, SoftwarePrefetch: true}
	clNo := clPF
	clNo.SoftwarePrefetch = false
	if r := SustainedGBs(clPF) / SustainedGBs(clNo); r > 1.15 {
		t.Errorf("Clovertown prefetch gain %.2fx, want ~1.06x", r)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{M: machine.AMDX2(), CoresPerSocketUsed: 3, SocketsUsed: 1},
		{M: machine.AMDX2(), CoresPerSocketUsed: 1, SocketsUsed: 3},
		{M: machine.AMDX2(), CoresPerSocketUsed: 1, SocketsUsed: 1, ThreadsPerCoreUsed: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	good := Config{M: machine.Niagara(), CoresPerSocketUsed: 8, SocketsUsed: 1, ThreadsPerCoreUsed: 4}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if good.Threads() != 32 || good.Cores() != 8 {
		t.Errorf("threads %d cores %d", good.Threads(), good.Cores())
	}
}

func TestModelRejectsEmptyInput(t *testing.T) {
	cfg := Config{M: machine.AMDX2(), CoresPerSocketUsed: 1, SocketsUsed: 1}
	if _, err := Model(cfg, nil); err == nil {
		t.Error("empty summaries accepted")
	}
}

// TestPowerEfficiencyOrdering reproduces Figure 2b's ranking on the dense
// matrix: Cell blade and PS3 lead, Niagara trails.
func TestPowerEfficiencyOrdering(t *testing.T) {
	eff := map[string]float64{}
	run := func(name string, cfg Config, threads int) {
		sums := denseSummaries(t, cfg, threads, 0.5)
		est, err := Model(cfg, sums)
		if err != nil {
			t.Fatal(err)
		}
		eff[name] = est.MflopsPerWatt
	}
	run("blade", Config{M: machine.CellBlade(), CoresPerSocketUsed: 8, SocketsUsed: 2, NUMAAware: true, OptimizedKernel: true}, 16)
	run("ps3", Config{M: machine.CellPS3(), CoresPerSocketUsed: 6, SocketsUsed: 1, OptimizedKernel: true}, 6)
	run("amd", Config{M: machine.AMDX2(), CoresPerSocketUsed: 2, SocketsUsed: 2, NUMAAware: true, SoftwarePrefetch: true, OptimizedKernel: true}, 4)
	run("clover", Config{M: machine.Clovertown(), CoresPerSocketUsed: 4, SocketsUsed: 2, SoftwarePrefetch: true, OptimizedKernel: true}, 8)
	run("niagara", Config{M: machine.Niagara(), CoresPerSocketUsed: 8, SocketsUsed: 1, ThreadsPerCoreUsed: 4, OptimizedKernel: true}, 32)

	if !(eff["blade"] > eff["amd"] && eff["blade"] > eff["clover"] && eff["blade"] > eff["niagara"]) {
		t.Errorf("Cell blade not most power-efficient: %+v", eff)
	}
	if !(eff["niagara"] < eff["amd"] && eff["niagara"] < eff["clover"]) {
		t.Errorf("Niagara not least power-efficient: %+v", eff)
	}
}

func TestSourceCapacityLines(t *testing.T) {
	// AMD: private 1MB L2, half for vectors: 8192 lines.
	amd := Config{M: machine.AMDX2(), CoresPerSocketUsed: 2, SocketsUsed: 2}
	if got := SourceCapacityLines(amd); got != 8192 {
		t.Errorf("AMD capacity %d lines, want 8192", got)
	}
	// Clovertown: 4MB per 2 cores; with all 4 cores used, 2 share each
	// cache: 2MB/2 = 1MB... utilization 0.5 => 2MB*0.5/2cores = 16384 lines? verify monotonicity instead.
	c1 := SourceCapacityLines(Config{M: machine.Clovertown(), CoresPerSocketUsed: 1, SocketsUsed: 1})
	c4 := SourceCapacityLines(Config{M: machine.Clovertown(), CoresPerSocketUsed: 4, SocketsUsed: 1})
	if c4 >= c1 {
		t.Errorf("shared L2: capacity per thread should shrink with cores (%d vs %d)", c4, c1)
	}
	// Niagara 32 threads share 3MB.
	n32 := SourceCapacityLines(Config{M: machine.Niagara(), CoresPerSocketUsed: 8, SocketsUsed: 1, ThreadsPerCoreUsed: 4})
	n1 := SourceCapacityLines(Config{M: machine.Niagara(), CoresPerSocketUsed: 1, SocketsUsed: 1, ThreadsPerCoreUsed: 1})
	if n32 >= n1 {
		t.Errorf("Niagara capacity should shrink with threads (%d vs %d)", n32, n1)
	}
}
