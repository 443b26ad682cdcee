// Command spmv-bench regenerates the paper's tables and figures from the
// synthetic suite, the auto-tuner, the baselines, and the platform model.
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
	tables, err := run(r, *experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmv-bench: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		var renderErr error
		switch {
		case *csv:
			renderErr = t.RenderCSV(os.Stdout)
		case *chart:
			renderErr = (&bench.Chart{Table: t}).Render(os.Stdout)
		default:
			renderErr = t.Render(os.Stdout)
		}
		if renderErr != nil {
			fmt.Fprintf(os.Stderr, "spmv-bench: %v\n", renderErr)
			os.Exit(1)
		}
	}
}

func run(r *bench.Runner, experiment string) ([]*bench.Table, error) {
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
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want one of %v or all)", experiment, names)
	}
	return out, nil
}
