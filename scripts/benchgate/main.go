// benchgate compares a benchmark report (BENCH_ci.json, written by
// scripts/benchsmoke) against a committed baseline and fails on
// regression: any gated metric worse than baseline by more than the
// tolerance exits non-zero. It is the comparator behind the bench-smoke CI
// job, so a PR that slows a gated path turns the pipeline red.
//
//	go run ./scripts/benchgate -baseline bench_baseline.json -current BENCH_ci.json [-tolerance 0.15]
//
// Both files use the schema of scripts/benchsmoke: a "metrics" map of
// name -> {value, unit, gated, higher_better}. Only metrics gated in the
// BASELINE are enforced (the baseline is the contract); extra metrics in
// the current report are informational. The committed baseline gates only
// deterministic model outputs (modeled bytes, footprint savings, sharded
// scaling), which CI holds to -tolerance 0; wall-clock behaviour is
// measured by e2ebench, whose -aa mode has a noise-aware rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// Metric is one measured value with its gating policy.
type Metric struct {
	Value        float64 `json:"value"`
	Unit         string  `json:"unit,omitempty"`
	Gated        bool    `json:"gated"`
	HigherBetter bool    `json:"higher_better"`
}

// Report is the benchsmoke/benchgate file schema.
type Report struct {
	Schema  int               `json:"schema"`
	Host    string            `json:"host,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
}

func load(path string) (Report, error) {
	var r Report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Metrics) == 0 {
		return r, fmt.Errorf("%s: no metrics", path)
	}
	return r, nil
}

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json", "committed baseline report")
	currentPath := flag.String("current", "BENCH_ci.json", "freshly measured report")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression on gated metrics")
	flag.Parse()

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	// Stable output order: gated first, then lexicographic.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			gi, gj := base.Metrics[names[i]].Gated, base.Metrics[names[j]].Gated
			if (gj && !gi) || (gi == gj && names[j] < names[i]) {
				names[i], names[j] = names[j], names[i]
			}
		}
	}

	failures := 0
	fmt.Printf("%-34s %12s %12s %8s  %s\n", "metric", "baseline", "current", "ratio", "verdict")
	for _, name := range names {
		b := base.Metrics[name]
		c, ok := cur.Metrics[name]
		if !ok {
			if b.Gated {
				fmt.Printf("%-34s %12.4g %12s %8s  FAIL (missing)\n", name, b.Value, "-", "-")
				failures++
			}
			continue
		}
		ratio := 0.0
		if b.Value != 0 {
			ratio = c.Value / b.Value
		}
		verdict := "info"
		if b.Gated {
			bad := false
			if b.HigherBetter {
				bad = c.Value < b.Value*(1-*tolerance)
			} else {
				bad = c.Value > b.Value*(1+*tolerance)
			}
			if bad {
				verdict = fmt.Sprintf("FAIL (>%.0f%% regression)", 100**tolerance)
				failures++
			} else {
				verdict = "ok"
			}
		}
		fmt.Printf("%-34s %12.4g %12.4g %8.3f  %s\n", name, b.Value, c.Value, ratio, verdict)
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d gated metric(s) regressed beyond %.0f%%\n", failures, 100**tolerance)
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated metrics within tolerance")
}
