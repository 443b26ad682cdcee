// Command spmv-bench regenerates the paper's tables and figures from the
// synthetic suite, the auto-tuner, the baselines, and the platform model.
// The aligned-text output lists each experiment's shape targets under its
// table.
//
// Usage:
//
//	spmv-bench [-scale 0.1] [-seed 7] [-csv] [-experiment all]
//
// Experiments: table1 table2 table3 table4 figure1-amd figure1-clovertown
// figure1-niagara figure1-ps3 figure1-blade figure2a figure2b speedups all
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.1, "matrix scale factor in (0,1]; 1.0 = paper dimensions")
	seed := flag.Int64("seed", 7, "generator seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	chart := flag.Bool("chart", false, "render figures as ASCII bar charts (like the paper's plots)")
	experiment := flag.String("experiment", "all", "which experiment to run (see doc comment)")
	flag.Parse()

	r := bench.NewRunner(*scale, *seed)
	exps, tables, err := run(r, *experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmv-bench: %v\n", err)
		os.Exit(1)
	}
	for i, t := range tables {
		var renderErr error
		switch {
		case *csv:
			renderErr = t.RenderCSV(os.Stdout)
		case *chart:
			renderErr = (&bench.Chart{Table: t}).Render(os.Stdout)
		default:
			if renderErr = t.Render(os.Stdout); renderErr == nil {
				printTargets(exps[i].Targets)
			}
		}
		if renderErr != nil {
			fmt.Fprintf(os.Stderr, "spmv-bench: %v\n", renderErr)
			os.Exit(1)
		}
	}
}

// run builds the named experiment (or all of them, in registry order) and
// returns each with its table.
func run(r *bench.Runner, experiment string) ([]bench.Experiment, []*bench.Table, error) {
	var exps []bench.Experiment
	var out []*bench.Table
	var names []string
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
		if experiment != "all" && experiment != e.Name {
			continue
		}
		t, err := e.Build(r)
		if err != nil {
			if experiment == "all" {
				err = fmt.Errorf("%s: %w", e.Name, err)
			}
			return nil, nil, err
		}
		exps, out = append(exps, e), append(out, t)
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("unknown experiment %q (want one of %v or all)", experiment, names)
	}
	return exps, out, nil
}

// printTargets lists an experiment's shape targets: what the paper shows
// and the reproduction must match in shape (who wins, by what factor,
// where the crossovers fall).
func printTargets(targets []string) {
	if len(targets) == 0 {
		return
	}
	fmt.Println("Shape targets:")
	for _, n := range targets {
		fmt.Printf("  * %s\n", n)
	}
	fmt.Println()
}
