package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// child runs one workload in a process of its own, so that GOMAXPROCS, the
// heap and VmHWM are that workload's alone, and parses its result line.
func child(name string, seed int64, seconds, trace int, outDir string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d trace %d: %w", name, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s result line: %w", name, err)
	}
	return res, nil
}

// commit is the revision the binary was built from; run.sh sets it when the
// checkout is a git repository (the driver's is not).
var commit = "unknown"

func printMetrics(name string, declared []metric, res result) {
	for _, d := range declared {
		fmt.Printf("%-12s %-30s %14.6g %s\n", name, d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// runAll runs every workload untraced and then traced, prints every metric
// and writes result.json.
func runAll(seed int64, seconds int, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	type both struct {
		EndToEnd result `json:"end_to_end"`
		PerLayer result `json:"per_layer"`
	}
	runs := make(map[string]both)
	ok := true
	for _, w := range workloads {
		e2e, err := child(w.name, seed, seconds, 0, outDir)
		if err != nil {
			return err
		}
		printMetrics(w.name, endToEnd, e2e)
		layers, err := child(w.name, seed, seconds, 1, outDir)
		if err != nil {
			return err
		}
		printMetrics(w.name, perLayer, layers)
		for _, r := range []result{e2e, layers} {
			fmt.Printf("%-12s correct %v, %d of %d ops failed\n", w.name, r.Correct, r.Failed, r.Attempted)
			ok = ok && r.Correct && r.Failed == 0
		}
		runs[w.name] = both{e2e, layers}
	}
	doc := map[string]any{
		"seed": seed, "seconds": seconds, "p": threads(), "go": runtime.Version(), "commit": commit,
		"workloads": runs,
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), doc); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("a workload failed ops or output checks")
	}
	return nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return cut(1), cut(3)
}

// worsening is how far b is worse than a, as a share of a.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs two sets of runs of this binary, each over every workload and
// seed, the second set in the opposite workload order, and holds them to
// the bounds of BENCHMARK.json as the driver does: the second set's median
// may not be worse than the first's by more than the bound, and with four
// seeds or more the quartile spread of each set, setup_s excepted, must
// stay within the bound too.
func runAA(seedList string, seconds int, outDir string) error {
	var seeds []int64
	for _, f := range strings.Split(seedList, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("-seeds: %w", err)
		}
		seeds = append(seeds, s)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// values[set][workload][metric] holds one value per seed.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		order := append([]workload(nil), workloads...)
		if set == 1 {
			slices.Reverse(order)
		}
		for _, seed := range seeds {
			for _, w := range order {
				res, err := child(w.name, seed, seconds, 0, outDir)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct %v, %d ops failed", w.name, seed, res.Correct, res.Failed)
				}
				if values[set][w.name] == nil {
					values[set][w.name] = make(map[string][]float64)
				}
				for k, v := range res.Metrics {
					values[set][w.name][k] = append(values[set][w.name][k], v.Value)
				}
			}
		}
	}

	type row struct {
		Workload string     `json:"workload"`
		Metric   string     `json:"metric"`
		Bound    float64    `json:"bound"`
		Medians  [2]float64 `json:"medians"`
		Worse    float64    `json:"worsening"`
		Spreads  []float64  `json:"spreads,omitempty"`
		Breach   bool       `json:"breach"`
	}
	var rows []row
	breaches := 0
	for _, w := range workloads {
		for _, d := range decl.EndToEnd {
			a, b := values[0][w.name][d.Name], values[1][w.name][d.Name]
			r := row{Workload: w.name, Metric: d.Name, Bound: d.Bound, Medians: [2]float64{median(a), median(b)}}
			r.Worse = worsening(d.Better, r.Medians[0], r.Medians[1])
			r.Breach = r.Worse > d.Bound
			if len(seeds) >= 4 {
				for k, v := range [][]float64{a, b} {
					q1, q3 := quartiles(v)
					r.Spreads = append(r.Spreads, (q3-q1)/r.Medians[k])
					r.Breach = r.Breach || (d.Name != "setup_s" && r.Spreads[k] > d.Bound)
				}
			}
			if r.Breach {
				breaches++
			}
			fmt.Printf("%-12s %-14s A %12.6g  B %12.6g  worse by %+7.4f  spreads %.4f  bound %.2f  %s\n",
				r.Workload, r.Metric, r.Medians[0], r.Medians[1], r.Worse, r.Spreads, r.Bound, map[bool]string{true: "BREACH", false: "ok"}[r.Breach])
			rows = append(rows, r)
		}
	}
	doc := map[string]any{
		"seeds": seeds, "seconds": seconds, "p": threads(), "go": runtime.Version(), "commit": commit,
		"rows": rows, "values": values,
	}
	if err := writeJSON(filepath.Join(outDir, "aa.json"), doc); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d (workload, metric) pairs outside their bounds", breaches)
	}
	return nil
}
