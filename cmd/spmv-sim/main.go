// Command spmv-sim replays the exact SpMV address stream of a matrix
// through a machine's simulated cache hierarchy (internal/sim) and prints
// the resulting cache, TLB and DRAM statistics — for plain CSR and for the
// tuned encoding side by side, making the data-structure optimizations'
// traffic savings directly observable.
//
// Usage:
//
//	spmv-sim [-matrix LP] [-scale 0.05] [-machine "AMD X2"] [-seed 7]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sim"
	"repro/internal/tune"
)

func main() {
	name := flag.String("matrix", "LP", "suite matrix name")
	scale := flag.Float64("scale", 0.05, "generator scale")
	seed := flag.Int64("seed", 7, "generator seed")
	machName := flag.String("machine", "AMD X2", `machine name ("AMD X2", "Clovertown", "Niagara")`)
	flag.Parse()

	m, err := machine.ByName(*machName)
	if err != nil {
		fatal(err)
	}
	if m.Kind == machine.LocalStore {
		fatal(fmt.Errorf("the Cell has no cache hierarchy to simulate; its local store is modeled analytically"))
	}
	coo, err := gen.GenerateByName(*name, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	csr, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		fatal(err)
	}
	st := coo.ComputeStats()
	fmt.Printf("matrix : %s at scale %g — %d x %d, %d nnz (%.1f/row)\n",
		*name, *scale, st.Rows, st.Cols, st.NNZ, st.NNZPerRow)
	fmt.Printf("machine: %s (L1 %dKB/%dB lines, L2 %dMB/%d-way, TLB %d x %dKB pages)\n\n",
		m.Name, m.L1.Bytes>>10, m.L1.LineBytes, m.L2.Bytes>>20, m.L2.Assoc,
		m.TLB.L1Entries, m.TLB.PageBytes>>10)

	run := func(label string, enc matrix.Format) {
		h, err := sim.NewHierarchy(m)
		if err != nil {
			fatal(err)
		}
		res, err := sim.Run(h, enc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-24s %12d accesses  L1 miss %5.2f%%  L2 miss %5.2f%%  TLB miss %6.3f%%  DRAM %8.2f MB\n",
			label, res.Accesses,
			100*res.L1.MissRate(), 100*res.L2.MissRate(), 100*res.TLB.MissRate(),
			float64(res.DRAMBytes)/1e6)
	}

	run("CSR32 (naive)", csr)

	encode := func(opt tune.Options) (*tune.Plan, matrix.Format) {
		plan, err := tune.NewPlan(csr, opt, 1)
		if err != nil {
			fatal(err)
		}
		parts, err := plan.Encode(1)
		if err != nil {
			fatal(err)
		}
		return plan, parts[0].Enc
	}
	_, rb := encode(tune.Options{RegisterBlock: true, ReduceIndices: true, AllowBCOO: true})
	run("register blocked", rb)

	full, enc := encode(tune.Options{
		RegisterBlock: true, ReduceIndices: true, AllowBCOO: true,
		CacheBlock: true, CacheBudgetBytes: m.L2.Bytes / 2, LineBytes: m.L2.LineBytes,
		TLBBlock: true, PageBytes: m.TLB.PageBytes, TLBEntries: m.TLB.L1Entries,
	})
	run("fully tuned (RB+CB+TLB)", enc)

	fmt.Printf("\nfootprints: CSR32 %d B -> tuned %d B (%.1f%% saved, %d cache blocks)\n",
		csr.FootprintBytes(), full.TotalFootprint, 100*full.Savings(), len(full.Decisions))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spmv-sim: %v\n", err)
	os.Exit(1)
}
