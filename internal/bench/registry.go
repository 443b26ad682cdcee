package bench

import "repro/internal/machine"

// Experiment is one table or figure of the paper's evaluation: its name on
// spmv-bench's command line, how a Runner builds it, and the shape targets
// spmv-bench prints under its table.
type Experiment struct {
	Name    string
	Build   func(r *Runner) (*Table, error)
	Targets []string
}

// Experiments lists every experiment in report order. spmv-bench runs one
// by name, or all of them in this order.
var Experiments = []Experiment{
	{"table1", func(*Runner) (*Table, error) { return Table1(), nil }, []string{
		"static parameter sheet; every derived value (peak Gflop/s, GB/s, flop:byte, Watts) matches Table 1 — asserted by internal/machine tests",
	}},
	{"table2", func(*Runner) (*Table, error) { return Table2(), nil }, []string{
		"optimization applicability matches the paper's Table 2, including the 'implemented but no speedup' entries (branchless/pipelining on x86)",
	}},
	{"table3", (*Runner).Table3, []string{
		"14 matrices with the paper's dimensions/nnz as specs; twins preserve nnz/row, block structure, skew, and aspect ratio at the chosen scale",
	}},
	{"table4", (*Runner).Table4, []string{
		"Cell blade sustains the highest fraction of socket bandwidth (paper: 91%); full blade ~62% due to page interleaving",
		"Niagara single-thread bandwidth is ~1% of peak (latency bound), scaling to ~20% at 32 threads",
		"AMD X2 and Clovertown reach nearly identical socket Gflop/s despite the 4.2x peak-flops gap",
		"Clovertown single core uses only ~34% of its FSB",
	}},
	{"figure1-amd", figure1(machine.AMDX2), []string{
		"median serial optimization gain ~1.4x over naive, ~1.2x over OSKI (prefetch helps on the Opteron)",
		"parallel gains dominate serial gains: ~1.7x (2 cores), ~3.3x (full system) over optimized serial",
		"full system ~3.2x OSKI-PETSc",
		"FEM/Ship gains from register blocking but not cache blocking; LP is the reverse (needs scale where its vectors exceed cache)",
	}},
	{"figure1-clovertown", figure1(machine.Clovertown), []string{
		"serial optimization gain only ~1.1x (hardware prefetch already good)",
		"2 cores ~1.6x one core; 4 cores only slightly better (FSB saturated)",
		"full system only ~2.3x serial — dual-socket bandwidth does not scale",
	}},
	{"figure1-niagara", figure1(machine.Niagara), []string{
		"single thread extremely poor (~32-37 Mflop/s median), ~15% serial optimization gain",
		"7.6x / 13.8x / 21.2x speedups at 8 / 16 / 32 threads",
	}},
	{"figure1-ps3", figure1(machine.CellPS3), []string{
		"near-perfect scaling to 6 SPEs (paper: 5.7x) — the PS3 is kernel-bound, not memory-bound",
	}},
	{"figure1-blade", figure1(machine.CellBlade), []string{
		"blade reaches 7.4x (8 SPEs) and 9.9x (16 SPEs) over one PS3 SPE; short-row matrices (Economics, Circuit) heavily penalized",
	}},
	{"figure2a", (*Runner).Figure2a, []string{
		"Cell blade fastest overall (paper: 3.4x / 3.6x / 12.8x single-socket advantage over Clovertown / AMD X2 / Niagara)",
		"Clovertown no faster than AMD X2 at full system despite 4.2x peak flops",
	}},
	{"figure2b", (*Runner).Figure2b, []string{
		"Cell blade leads power efficiency, PS3 close; Niagara lowest despite the lowest chip power",
	}},
	{"speedups", (*Runner).Speedups, []string{
		"every §6.2-6.5 median-speedup claim, paper vs. measured, in one table",
		"known deviation: the AMD 1→2-core speedup under-reproduces (paper 1.7x) because the model's single-core sustained bandwidth is matrix-independent, pinned to Table 4's dense-case 5.40 GB/s; the paper's 1-core median is weaker than its dense case, so its parallel speedup is larger",
		"known deviation: Cell-vs-Niagara socket ratio (paper 12.8x) is sensitive to Niagara's thread count at the 'socket' level; with the paper's 8c×1t socket definition the reproduction gives ~10x",
	}},
}

// figure1 builds Figure 1's panel for one machine.
func figure1(m func() *machine.Machine) func(*Runner) (*Table, error) {
	return func(r *Runner) (*Table, error) { return r.Figure1(m()) }
}
