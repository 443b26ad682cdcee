// Command spmv-tune prints the auto-tuner's decisions for a matrix: the
// per-cache-block choice of format, register-block shape, and index width,
// together with footprint accounting against plain CSR — the §4.2 one-pass
// heuristic, made inspectable.
//
// Usage:
//
//	spmv-tune -matrix FEM/Cantilever [-scale 0.05] [-seed 7] [-file m.mtx]
//	          [-no-rb] [-no-cb] [-no-16bit] [-cache-kb 512] [-threads 4]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/mmio"
	"repro/internal/tune"
)

func main() {
	name := flag.String("matrix", "FEM/Cantilever", "suite matrix name (see spmv-bench table3)")
	file := flag.String("file", "", "MatrixMarket file to tune instead of a generated matrix")
	scale := flag.Float64("scale", 0.05, "generator scale factor")
	seed := flag.Int64("seed", 7, "generator seed")
	noRB := flag.Bool("no-rb", false, "disable register blocking")
	noCB := flag.Bool("no-cb", false, "disable cache/TLB blocking")
	no16 := flag.Bool("no-16bit", false, "disable 16-bit index reduction")
	cacheKB := flag.Int64("cache-kb", 512, "cache budget for blocking (KiB)")
	threads := flag.Int("threads", 1, "plan per-thread blocks for this many threads")
	flag.Parse()

	coo, err := load(*file, *name, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	csr, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		fatal(err)
	}

	opt := tune.DefaultOptions()
	opt.CacheBudgetBytes = *cacheKB << 10
	if *noRB {
		opt.RegisterBlock = false
		opt.AllowBCOO = false
	}
	if *noCB {
		opt.CacheBlock = false
		opt.TLBBlock = false
	}
	if *no16 {
		opt.ReduceIndices = false
	}

	st := coo.ComputeStats()
	fmt.Printf("matrix: %s  (%d x %d, %d nonzeros, %.1f nnz/row, %d empty rows)\n\n",
		displayName(*file, *name), st.Rows, st.Cols, st.NNZ, st.NNZPerRow, st.EmptyRows)

	plan, err := tune.NewPlan(csr, opt, *threads)
	if err != nil {
		fatal(err)
	}
	if plan.Parts == nil {
		printPlan(plan)
		return
	}
	for i, part := range plan.Parts {
		fmt.Printf("--- thread %d (rows %d-%d) ---\n", i, part.Range.Lo, part.Range.Hi)
		printPlan(part)
	}
	fmt.Printf("--- all %d threads ---\n", len(plan.Parts))
	printTotals(plan)
}

func load(file, name string, scale float64, seed int64) (*matrix.COO, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mmio.Read(f)
	}
	return gen.GenerateByName(name, scale, seed)
}

func displayName(file, name string) string {
	if file != "" {
		return file
	}
	return name
}

func printPlan(p *tune.Plan) {
	fmt.Printf("%-8s %-8s %-10s %-6s %-6s %10s %8s %6s\n",
		"rowOff", "colOff", "size", "format", "shape", "footprint", "idx", "fill")
	for _, d := range p.Decisions {
		fmt.Printf("%-8d %-8d %-10s %-6s %-6s %10d %8d %6.2f\n",
			d.RowOff, d.ColOff, fmt.Sprintf("%dx%d", d.Rows, d.Cols),
			d.Format, d.Shape, d.Footprint, d.IndexBits, d.Fill)
	}
	fmt.Println()
	printTotals(p)
}

func printTotals(p *tune.Plan) {
	fmt.Printf("total footprint : %d bytes (%.2f bytes/nonzero)\n",
		p.TotalFootprint, bytesPerNNZ(p))
	fmt.Printf("CSR32 baseline  : %d bytes\n", p.BaselineFootprint)
	fmt.Printf("savings         : %.1f%%\n\n", 100*p.Savings())
}

func bytesPerNNZ(p *tune.Plan) float64 {
	var nnz int64
	for _, d := range p.Decisions {
		nnz += d.NNZ
	}
	if nnz == 0 {
		return 0
	}
	return float64(p.TotalFootprint) / float64(nnz)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spmv-tune: %v\n", err)
	os.Exit(1)
}
