// benchsmoke computes the deterministic model outputs behind the
// bench-smoke CI job on small generated matrices and writes a JSON report
// (BENCH_ci.json) that scripts/benchgate compares, exactly, against the
// committed bench_baseline.json. Everything here is a function of the
// generated matrix, the tuner and the traffic model — no wall clock — so a
// value moves only when one of those genuinely changed. Measured
// throughput, latency and overhead ratios are e2ebench's job (bash
// e2ebench/run.sh; its -aa mode holds two runs to noise-aware bounds).
//
//   - kernel: the §4.2-tuned operator's footprint saving over naive CSR on
//     a Cantilever twin.
//   - sharding: the K=4 cluster of internal/server over in-process
//     members — modeled bandwidth-bound aggregate speedup, with bitwise
//     parity against single-node serving enforced as a hard failure.
//   - routing: the 2-fast/1-slow K=3 fleet under round-robin vs
//     least-loaded — modeled bandwidth-bound throughput of each policy on
//     the registered band placement.
//   - symmetry: a symmetrized Cantilever twin served from upper-triangle
//     (SymCSR) storage vs its general-CSR twin — the modeled matrix-stream
//     ratio (≈0.5), with numerical agreement enforced as a hard failure.
//
// Refresh the baseline with:
//
//	go run ./scripts/benchsmoke -out bench_baseline.json
//
// then review the diff before committing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"

	spmv "repro"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/traffic"
)

// Metric mirrors scripts/benchgate's schema.
type Metric struct {
	Value        float64 `json:"value"`
	Unit         string  `json:"unit,omitempty"`
	Gated        bool    `json:"gated"`
	HigherBetter bool    `json:"higher_better"`
}

// Report mirrors scripts/benchgate's schema.
type Report struct {
	Schema  int               `json:"schema"`
	Host    string            `json:"host,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// kernelMetrics reports the tuner's deterministic footprint saving.
func kernelMetrics(metrics map[string]Metric) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		log.Fatal(err)
	}
	metrics["tuned_footprint_savings"] = Metric{
		Value: tuned.Savings(), Unit: "frac", Gated: true, HigherBetter: true,
	}
}

// pinnedConfig is DefaultConfig with the parallel widths pinned to 1 so
// the tuner's per-thread-block decisions — and with them the modeled
// sweep bytes — do not vary with the runner's core count. The gated
// deterministic metrics must compare equal across CI machines.
func pinnedConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	return cfg
}

// shardingMetrics registers an LP twin on a K=4 in-process cluster,
// enforces bitwise parity with single-node serving, and reports the
// deterministic bandwidth-bound aggregate speedup.
func shardingMetrics(metrics map[string]Metric) {
	const k = 4
	m, err := spmv.GenerateSuite("LP", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	single := server.New(pinnedConfig())
	defer single.Close()
	info, err := single.Register("m", "LP", m)
	if err != nil {
		log.Fatal(err)
	}

	transports := make([]server.Transport, k)
	for i := range transports {
		ms := server.New(pinnedConfig())
		defer ms.Close()
		transports[i] = server.NewLocalTransport(fmt.Sprintf("node%d", i), ms)
	}
	cluster, err := server.NewCluster(transports, server.ClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sinfo, err := cluster.RegisterSharded("m", "LP", m, k)
	if err != nil {
		log.Fatal(err)
	}

	x := randVec(info.Cols, 11)
	want, err := single.MulOpts("m", x, server.MulOptions{})
	if err != nil {
		log.Fatal(err)
	}
	got, err := cluster.MulOpts("m", x, server.ClusterMulOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("benchsmoke: K=%d sharded serving diverged from single-node at y[%d]", k, i)
		}
	}

	amd := machine.AMDX2()
	nodeBW := amd.MemCtrl.PerSocketGBs * amd.SustainedBWFracSocket
	speedup := traffic.SustainedSweepRate(nodeBW, sinfo.MaxBandSweepBytes) /
		traffic.SustainedSweepRate(nodeBW, info.SweepBytes)
	metrics["shard_k4_model_speedup"] = Metric{Value: speedup, Unit: "x", Gated: true, HigherBetter: true}
	metrics["shard_k4_max_band_sweep_bytes"] = Metric{
		Value: float64(sinfo.MaxBandSweepBytes), Unit: "B", Gated: true, HigherBetter: false,
	}
	metrics["single_sweep_bytes"] = Metric{
		Value: float64(info.SweepBytes), Unit: "B", Gated: true, HigherBetter: false,
	}
}

// routeSkewMetrics models the routing-policy gate on a skewed fleet: the
// K=3, replicas=2 topology served by two full-speed members and one at a
// quarter of the socket's sustained bandwidth. Round-robin splits every
// band's traffic evenly across its replicas, so the fleet's rate is set
// by the slow member; the least-loaded policy converges on splitting
// each band in proportion to its replicas' bandwidth (in-flight modeled
// bytes drain slower on the slow node, so the router steers away until
// drain rates match). Both rates fall out of the bandwidth-bound model
// applied to the registered topology's real band placement, so the
// speedup is deterministic and gated. examples/loadgen -mode shard runs
// the measured (wall-clock) twin of this scenario.
func routeSkewMetrics(metrics map[string]Metric) {
	const k = 3
	m, err := spmv.GenerateSuite("LP", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	transports := make([]server.Transport, k)
	for i := range transports {
		ms := server.New(pinnedConfig())
		defer ms.Close()
		transports[i] = server.NewLocalTransport(fmt.Sprintf("node%d", i), ms)
	}
	cluster, err := server.NewCluster(transports, server.ClusterConfig{
		Replicas: 2, Policy: server.RouteLeastLoaded,
	})
	if err != nil {
		log.Fatal(err)
	}
	sinfo, err := cluster.RegisterSharded("m", "LP", m, k)
	if err != nil {
		log.Fatal(err)
	}

	amd := machine.AMDX2()
	nodeBW := amd.MemCtrl.PerSocketGBs * amd.SustainedBWFracSocket
	bw := map[string]float64{"node0": nodeBW, "node1": nodeBW, "node2": nodeBW / 4}

	// Per-request modeled bytes landing on each member under each policy.
	rrBytes := make(map[string]float64)
	llBytes := make(map[string]float64)
	for _, b := range sinfo.Bands {
		var pool float64
		for _, name := range b.Members {
			pool += bw[name]
		}
		for _, name := range b.Members {
			rrBytes[name] += float64(b.SweepBytes) / float64(len(b.Members))
			llBytes[name] += float64(b.SweepBytes) * bw[name] / pool
		}
	}
	// A member sustaining bw serves at most bw/bytes requests/s; the fleet
	// is bounded by its slowest member.
	fleetRate := func(bytes map[string]float64) float64 {
		rate := 0.0
		for name, by := range bytes {
			if r := traffic.SustainedSweepRate(bw[name], int64(by)); rate == 0 || r < rate {
				rate = r
			}
		}
		return rate
	}
	rr := fleetRate(rrBytes)
	ll := fleetRate(llBytes)
	metrics["route_skew_rr_req_s"] = Metric{Value: rr, Unit: "req/s"}
	metrics["route_skew_ll_req_s"] = Metric{Value: ll, Unit: "req/s"}
	metrics["route_skew_ll_speedup"] = Metric{Value: ll / rr, Unit: "x", Gated: true, HigherBetter: true}
}

// symmetricMetrics registers a symmetrized Cantilever twin with symmetric
// (upper-triangle) storage, enforces numerical agreement with the general
// CSR32 operator the naive tuner compiles, and reports the deterministic
// matrix-stream ratio of the two — the acceptance signal that symmetry
// halves the streamed bytes.
func symmetricMetrics(metrics map[string]Metric) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	sym, err := spmv.Symmetrize(m)
	if err != nil {
		log.Fatal(err)
	}
	symTrue := true

	// The general-CSR twin of the comparison.
	gen, err := spmv.Compile(sym, spmv.NaiveOptions())
	if err != nil {
		log.Fatal(err)
	}
	gtr, err := gen.Traffic(spmv.TrafficOptions{})
	if err != nil {
		log.Fatal(err)
	}

	ssrv := server.New(pinnedConfig())
	defer ssrv.Close()
	sinfo, err := ssrv.RegisterOpts("m", "cant-sym", sym, server.RegisterOptions{Symmetric: &symTrue})
	if err != nil {
		log.Fatal(err)
	}
	if !sinfo.Symmetric {
		log.Fatal("benchsmoke: symmetric registration did not select the symmetric operator")
	}

	x := randVec(sinfo.Cols, 13)
	want, err := gen.Mul(x)
	if err != nil {
		log.Fatal(err)
	}
	got, err := ssrv.MulOpts("m", x, server.MulOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i := range got {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			log.Fatalf("benchsmoke: symmetric serving diverged from general at y[%d] by %g", i, d)
		}
	}

	ratio := float64(sinfo.MatrixBytes) / float64(gtr.MatrixBytes)
	metrics["sym_matrix_stream_bytes"] = Metric{Value: float64(sinfo.MatrixBytes), Unit: "B"}
	metrics["sym_matrix_stream_ratio"] = Metric{Value: ratio, Unit: "frac", Gated: true, HigherBetter: false}
}

func main() {
	out := flag.String("out", "BENCH_ci.json", "report path")
	flag.Parse()

	metrics := make(map[string]Metric)
	kernelMetrics(metrics)
	shardingMetrics(metrics)
	routeSkewMetrics(metrics)
	symmetricMetrics(metrics)

	r := Report{
		Schema:  1,
		Host:    fmt.Sprintf("%s/%s gomaxprocs=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
		Metrics: metrics,
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mt := metrics[n]
		gate := ""
		if mt.Gated {
			gate = " [gated]"
		}
		fmt.Printf("%-34s %12.4g %s%s\n", n, mt.Value, mt.Unit, gate)
	}
	fmt.Printf("benchsmoke: wrote %s\n", *out)
}
