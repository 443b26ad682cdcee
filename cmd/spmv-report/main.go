// Command spmv-report runs the complete experiment battery and writes the
// results into EXPERIMENTS.md (or another file), recording paper-vs-
// measured for every table and figure — the reproducibility record of this
// repository.
//
// Usage:
//
//	spmv-report [-scale 0.1] [-seed 7] [-o EXPERIMENTS.md]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.1, "matrix scale factor in (0,1]")
	seed := flag.Int64("seed", 7, "generator seed")
	out := flag.String("o", "EXPERIMENTS.md", "output file")
	flag.Parse()

	r := bench.NewRunner(*scale, *seed)
	var buf bytes.Buffer

	fmt.Fprintf(&buf, `# EXPERIMENTS — paper vs. reproduction

Generated by cmd/spmv-report on %s with scale=%g seed=%d.

This file records, for every table and figure in the evaluation section of
"Optimization of Sparse Matrix-Vector Multiplication on Emerging Multicore
Platforms" (Williams et al., SC'07), what the paper reports and what this
reproduction measures. Absolute Gflop/s come from the calibrated platform
model over the synthetic matrix suite (see DESIGN.md for both
substitutions); the *shapes* — who wins, by what factor, where the
crossovers fall — are the reproduction targets, and each section below
names its targets and whether they hold.

`, time.Now().UTC().Format("2006-01-02 15:04 UTC"), *scale, *seed)

	for _, e := range bench.Experiments {
		t, err := e.Build(r)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.Name, err))
		}
		if err := t.Render(&buf); err != nil {
			fatal(err)
		}
		if len(e.Targets) > 0 {
			fmt.Fprintln(&buf, "Shape targets:")
			for _, n := range e.Targets {
				fmt.Fprintf(&buf, "  * %s\n", n)
			}
			fmt.Fprintln(&buf)
		}
	}

	if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, buf.Len())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spmv-report: %v\n", err)
	os.Exit(1)
}
