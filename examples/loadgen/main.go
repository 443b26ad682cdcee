// loadgen drives the serving subsystem (internal/server) under load and
// prints what each mechanism buys. -mode picks the demonstration:
//
//   - serve: closed-loop Muls against one in-process server, unbatched and
//     then fused up to -max-batch requests per sweep (§2.1's multiple
//     vectors: the matrix streams once for up to k requests).
//   - slo: open-loop latency-class clients against closed-loop bulk-class
//     clients on a one-slot server, under FIFO and then the SLO scheduler.
//   - cg: one CG solve over loopback HTTP, naive (one JSON POST /mul per
//     iteration) and as a server-resident session (one POST /solve, then
//     polls): iterations/s, wire bytes, modeled DRAM bytes per iteration.
//   - shard: one node against K-member clusters: measured req/s beside the
//     bandwidth-bound aggregate with each member one AMD X2 socket (§5.1),
//     bitwise parity checked on every topology; then a fleet with one slow
//     member under round-robin and least-loaded routing.
//
// Usage:
//
//	go run ./examples/loadgen -mode serve -requests 400 [-suite LP] [-scale 0.1] [-clients 8]
//	go run ./examples/loadgen -mode slo -scale 0.05 [-duration 5s] [-lat-clients 4] [-bulk-clients 8]
//	go run ./examples/loadgen -mode cg [-side 120] [-threads 4] [-tol 1e-8] [-maxiter 4000]
//	go run ./examples/loadgen -mode shard [-scale 0.1] [-shards 2,4] [-clients 8] [-requests 100]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spmv "repro"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/traffic"
)

var (
	mode        = flag.String("mode", "serve", "serve, slo, cg or shard")
	suite       = flag.String("suite", "LP", "Table 3 suite matrix to serve (serve, slo, shard)")
	scale       = flag.Float64("scale", 0.1, "matrix scale (serve, slo, shard)")
	clients     = flag.Int("clients", 8, "concurrent closed-loop clients (serve, shard)")
	requests    = flag.Int("requests", 100, "requests per client (serve, shard)")
	maxBatch    = flag.Int("max-batch", 8, "serve: widest fused sweep when batching")
	window      = flag.Duration("window", time.Millisecond, "serve: batch linger window (every leader lingers it; 1ms lets all closed-loop clients rejoin)")
	duration    = flag.Duration("duration", 5*time.Second, "slo: measured run length per scheduler")
	latClients  = flag.Int("lat-clients", 4, "slo: open-loop latency-class clients")
	bulkClients = flag.Int("bulk-clients", 8, "slo: closed-loop bulk-class clients")
	latRate     = flag.Float64("lat-rate", 50, "slo: arrival rate per latency client, req/s")
	side        = flag.Int("side", 120, "cg: Poisson grid side (n = side^2 unknowns)")
	threads     = flag.Int("threads", 4, "cg: server threads and workers")
	tol         = flag.Float64("tol", 1e-8, "cg: relative residual tolerance")
	maxIter     = flag.Int("maxiter", 4000, "cg: iteration budget")
	shardList   = flag.String("shards", "2,4", "shard: comma-separated shard counts to compare against single-node")
	replicas    = flag.Int("replicas", 1, "shard: member replicas per shard band")
	skewDelay   = flag.Duration("skew-delay", 2*time.Millisecond, "shard: per-sub-request delay of the slow member in the skewed-fleet scenario (0 skips it)")
)

func main() {
	flag.Parse()
	modes := map[string]func(){"serve": serveMode, "slo": sloMode, "cg": cgMode, "shard": shardMode}
	run, ok := modes[*mode]
	if !ok {
		log.Fatalf("unknown -mode %q (want serve, slo, cg or shard)", *mode)
	}
	run()
}

func serveMode() {
	fmt.Printf("serving %s twin at scale %g to %d clients x %d requests\n\n", *suite, *scale, *clients, *requests)

	unbatched := server.DefaultConfig()
	unbatched.MaxBatch = 1
	u := serveRun("unbatched", unbatched)

	batched := server.DefaultConfig()
	batched.MaxBatch, batched.BatchWindow, batched.Adaptive = *maxBatch, *window, false
	b := serveRun("batched", batched)

	fmt.Printf("\nbatched serving: %.2fx the unbatched throughput\n", b/u)
}

func serveRun(name string, cfg server.Config) (reqPerSec float64) {
	s := server.New(cfg)
	defer s.Close()
	info := must(s.RegisterSuite("m", *suite, *scale, 7))
	reqPerSec = measure(info.Cols, mulOn(s.MulOpts, server.MulOptions{}))

	st := s.Stats()
	fmt.Printf("%-10s %8.0f req/s  %6d sweeps for %5d requests (mean width %.2f)  %7.1f MB matrix stream saved\n",
		name, reqPerSec, st.Sweeps, st.Requests, st.MeanFusedWidth(), float64(st.SavedBytes)/1e6)
	if h, ok := s.Latency().Matrix["m"]; ok {
		fmt.Printf("%-10s measured mul latency: p50 %.0fµs  p99 %.0fµs  (mean %.0fµs over %d requests)\n",
			"", h.P50US, h.P99US, h.MeanUS, h.Count)
	}
	return reqPerSec
}

func sloMode() {
	fmt.Printf("mixed SLO load on a 1-slot server: %d open-loop latency clients @ %g req/s vs %d closed-loop bulk clients, %s per mode\n\n",
		*latClients, *latRate, *bulkClients, *duration)

	fifoP99, fifoBulk := sloRun("fifo", sched.Config{})
	schedP99, schedBulk := sloRun("sched", sched.Config{Enabled: true})

	fmt.Println()
	if fifoP99 > 0 && schedP99 > 0 {
		fmt.Printf("latency-class p99: %.0fµs -> %.0fµs (%.1fx lower with scheduling)\n", fifoP99, schedP99, fifoP99/schedP99)
	}
	if fifoBulk > 0 {
		fmt.Printf("bulk throughput:   %d -> %d requests (%.1f%% of FIFO)\n",
			fifoBulk, schedBulk, 100*float64(schedBulk)/float64(fifoBulk))
	}
}

func sloRun(name string, sc sched.Config) (latP99 float64, bulkServed int64) {
	cfg := server.DefaultConfig()
	// One sweep slot and no fusion: a narrow server saturates under the
	// bulk load, so queueing policy is the whole story.
	cfg.Workers, cfg.MaxBatch, cfg.Sched = 1, 1, sc
	s := server.New(cfg)
	defer s.Close()
	info := must(s.RegisterSuite("m", *suite, *scale, 7))

	stop := make(chan struct{})
	// Open-loop latency tier: a fixed arrival rate regardless of backlog,
	// the way interactive traffic actually arrives.
	var wg sync.WaitGroup
	var latServed atomic.Int64
	latMul := mulOn(s.MulOpts, server.MulOptions{Tenant: "interactive", Class: "latency"})
	for g := 0; g < *latClients; g++ {
		x := randVec(info.Cols, int64(g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Duration(float64(time.Second) / *latRate))
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if latMul(x) == nil {
						latServed.Add(1)
					}
				}
			}
		}()
	}
	// Closed-loop bulk tier: each client issues the next request the
	// moment the previous one returns; both tiers run for -duration.
	time.AfterFunc(*duration, func() { close(stop) })
	bulkServed, _ = closedLoop(*bulkClients, 0, info.Cols, 1000, stop,
		mulOn(s.MulOpts, server.MulOptions{Tenant: "batch", Class: "bulk"}))
	wg.Wait()

	class := s.Latency().Class
	lat, bulk := class["latency"], class["bulk"]
	fmt.Printf("%-6s latency-class p50 %8.0fµs  p99 %8.0fµs  (%d served @ open loop)\n",
		name, lat.P50US, lat.P99US, latServed.Load())
	fmt.Printf("%-6s bulk-class    p50 %8.0fµs  p99 %8.0fµs  (%d served @ closed loop)\n", "", bulk.P50US, bulk.P99US, bulkServed)
	if adm := s.Admission(); adm != nil {
		var rejected uint64
		for _, ten := range adm.Tenants {
			rejected += ten.RejectedRequests
		}
		fmt.Printf("%-6s jain fairness %.3f  admission rejections %d\n", "", adm.JainFairness, rejected)
	}
	return lat.P99US, bulkServed
}

func cgMode() {
	// Serving endpoint: real HTTP on a loopback port.
	cfg := server.DefaultConfig()
	cfg.Threads, cfg.Workers = *threads, *threads
	s := server.New(cfg)
	defer s.Close()
	ln := must(net.Listen("tcp", "127.0.0.1:0"))
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	info := must(s.Register("poisson", "poisson", poisson(*side)))
	fmt.Printf("system    : %d x %d, %d nnz, kernel %s, served at %s\n", info.Rows, info.Cols, info.NNZ, info.Kernel, base)
	b := randVec(*side**side, 1)

	// Naive: client-side CG, one mul round trip per iteration.
	var naiveWire wire
	t0 := time.Now()
	iters, relres := clientCG(&http.Client{Transport: &naiveWire}, base+"/v1/matrices/poisson/mul", b)
	naiveElapsed := time.Since(t0)
	naiveRate := float64(iters) / naiveElapsed.Seconds()
	fmt.Printf("naive     : %4d iters in %7.1fms  (%6.0f iters/s)  residual %.2e  wire %s\n",
		iters, 1e3*naiveElapsed.Seconds(), naiveRate, relres, naiveWire.mb())
	if h, ok := s.Latency().Endpoint["mul"]; ok {
		fmt.Printf("          : measured mul round-trip p50 %.0fµs  p99 %.0fµs (server-side, %d requests)\n",
			h.P50US, h.P99US, h.Count)
	}

	// Session: one solve request, state server-resident, poll to done.
	var sessWire wire
	t0 = time.Now()
	hc := server.NewHTTPClient(base, &http.Client{Transport: &sessWire})
	fin := must(hc.SolveOpts("poisson",
		server.SolveRequest{Method: "cg", B: b, Tol: *tol, MaxIters: *maxIter}, server.SolveOptions{}))
	for fin.State == "running" {
		fin = must(hc.SolveStatus(fin.SID, time.Second))
	}
	if fin.State != "converged" {
		log.Fatalf("session ended %q after %d iters: %s", fin.State, fin.Iters, fin.Error)
	}
	sessElapsed := time.Since(t0)
	sessRate := float64(fin.Iters) / sessElapsed.Seconds()
	fmt.Printf("session   : %4d iters in %7.1fms  (%6.0f iters/s)  residual %.2e  wire %s\n",
		fin.Iters, 1e3*sessElapsed.Seconds(), sessRate, fin.Residual, sessWire.mb())
	if h, ok := s.Latency().Stage["solve_iter"]; ok {
		fmt.Printf("          : measured iteration p50 %.0fµs  p99 %.0fµs (server-resident, %d iterations)\n",
			h.P50US, h.P99US, h.Count)
	}

	fmt.Printf("residency : %.2fx iterations/s, %.0fx fewer wire bytes\n",
		sessRate/naiveRate, float64(naiveWire.n)/float64(max(sessWire.n, 1)))
	fmt.Printf("modeled   : %.1f KB DRAM per session iteration (sweep + BLAS-1 tail)\n", float64(fin.ModeledBytesPerIter)/1e3)
	fmt.Printf("          : sustained-DRAM bound at 10 GB/s = %.0f iters/s; measured session rate is %.1f%% of it\n",
		1e10/float64(fin.ModeledBytesPerIter), 100*sessRate*float64(fin.ModeledBytesPerIter)/1e10)
}

// clientCG is the naive mode: textbook CG with the SpMV outsourced to one
// JSON POST /mul per iteration, everything else local.
func clientCG(c *http.Client, url string, b []float64) (iters int, relres float64) {
	x := make([]float64, len(b))
	r, p := slices.Clone(b), slices.Clone(b)
	rr := dot(r, r)
	bnorm := math.Sqrt(rr)
	for ; iters < *maxIter && math.Sqrt(rr)/bnorm > *tol; iters++ {
		resp := must(c.Post(url, "application/json", bytes.NewReader(must(json.Marshal(map[string]any{"x": p})))))
		if resp.StatusCode >= 300 {
			log.Fatalf("POST %s: %s", url, resp.Status)
		}
		var mul struct{ Y []float64 }
		check(json.NewDecoder(resp.Body).Decode(&mul))
		resp.Body.Close()
		ap := mul.Y
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return iters, math.Sqrt(rr) / bnorm
}

// poisson assembles the 2D 5-point stencil: SPD, the canonical CG system.
func poisson(side int) *spmv.Matrix {
	m := spmv.NewMatrix(side*side, side*side)
	for i := 0; i < side*side; i++ {
		r, c := i/side, i%side
		check(m.Set(i, i, 4))
		for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			if rr, cc := r+d[0], c+d[1]; rr >= 0 && rr < side && cc >= 0 && cc < side {
				check(m.Set(i, rr*side+cc, -1))
			}
		}
	}
	return m
}

func shardMode() {
	m := must(spmv.GenerateSuite(*suite, *scale, 7))
	// Each member node is modeled as one socket of the paper's AMD X2
	// testbed sustaining its SpMV-measured fraction of peak DRAM bandwidth.
	amd := machine.AMDX2()
	nodeBW := amd.MemCtrl.PerSocketGBs * amd.SustainedBWFracSocket

	single := server.New(server.DefaultConfig())
	defer single.Close()
	info := must(single.Register("m", *suite, m))
	fmt.Printf("serving %s twin at scale %g: %dx%d, %d nnz, %.2f MB/sweep modeled\n",
		*suite, *scale, info.Rows, info.Cols, info.NNZ, float64(info.SweepBytes)/1e6)
	fmt.Printf("node model: one %s socket, %.2f GB/s sustained\n\n", amd.Name, nodeBW)

	probe := randVec(info.Cols, 99)
	want := must(single.MulOpts("m", probe, server.MulOptions{}))
	singleRate := traffic.SustainedSweepRate(nodeBW, info.SweepBytes)
	fmt.Printf("%-8s %10.0f req/s measured  %10.0f req/s aggregate (modeled)  1.00x\n",
		"K=1", measure(info.Cols, mulOn(single.MulOpts, server.MulOptions{})), singleRate)

	lastK, lastSpeedup := 0, 0.0
	for _, ks := range strings.Split(*shardList, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(ks))
		if err != nil || k < 2 {
			log.Fatalf("bad shard count %q", ks)
		}
		c, sinfo, closeFleet := fleet(m, k, server.ClusterConfig{Replicas: *replicas}, 0)
		checkParity(fmt.Sprintf("K=%d", k), c, probe, want)
		// The fleet's aggregate rate is bounded by its most-loaded member:
		// every request lands one band sub-request on each node.
		rate := traffic.SustainedSweepRate(nodeBW, sinfo.MaxBandSweepBytes)
		lastK, lastSpeedup = k, rate/singleRate
		fmt.Printf("K=%-6d %10.0f req/s measured  %10.0f req/s aggregate (modeled)  %.2fx\n",
			k, measure(info.Cols, mulOn(c.MulOpts, server.ClusterMulOptions{})), rate, lastSpeedup)
		closeFleet()
	}
	fmt.Printf("\naggregate throughput at K=%d: %.2fx single-node (bandwidth-bound model, bitwise-identical results)\n",
		lastK, lastSpeedup)
	if *skewDelay <= 0 {
		return
	}

	fmt.Printf("\nskewed fleet: 3 members, node2 delayed %s per sub-request, K=3, replicas=2\n", *skewDelay)
	rates := map[server.RoutePolicy]float64{}
	for _, policy := range []server.RoutePolicy{server.RouteRoundRobin, server.RouteLeastLoaded} {
		c, _, closeFleet := fleet(m, 3, server.ClusterConfig{Replicas: 2, Policy: policy}, *skewDelay)
		checkParity(string(policy), c, probe, want)
		rates[policy] = measure(info.Cols, mulOn(c.MulOpts, server.ClusterMulOptions{}))
		var dist []string
		for _, mi := range c.Members() {
			dist = append(dist, fmt.Sprintf("%s=%d", mi.Name, mi.Requests))
		}
		fmt.Printf("%-14s %10.0f req/s measured   sub-requests: %s\n", policy, rates[policy], strings.Join(dist, " "))
		closeFleet()
	}
	fmt.Printf("least-loaded vs round-robin on the skewed fleet: %.2fx\n",
		rates[server.RouteLeastLoaded]/rates[server.RouteRoundRobin])
}

// fleet registers m in k row bands on a cluster of k in-process members.
// When slow > 0 the last member's transport sleeps that long before every
// Mul, standing in for a degraded node that still answers correctly.
func fleet(m *spmv.Matrix, k int, cc server.ClusterConfig, slow time.Duration) (*server.Cluster, server.ShardedMatrixInfo, func()) {
	servers := make([]*server.Server, k)
	transports := make([]server.Transport, k)
	for i := range servers {
		servers[i] = server.New(server.DefaultConfig())
		transports[i] = server.NewLocalTransport(fmt.Sprintf("node%d", i), servers[i])
	}
	if slow > 0 {
		transports[k-1] = &slowTransport{Transport: transports[k-1], delay: slow}
	}
	c := must(server.NewCluster(transports, cc))
	info := must(c.RegisterSharded("m", *suite, m, k))
	return c, info, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

type slowTransport struct {
	server.Transport
	delay time.Duration
}

func (t *slowTransport) Mul(id string, x []float64) ([]float64, error) {
	time.Sleep(t.delay)
	return t.Transport.Mul(id, x)
}

// checkParity fails the run unless c answers probe with the single node's bits.
func checkParity(what string, c *server.Cluster, probe, want []float64) {
	if got := must(c.MulOpts("m", probe, server.ClusterMulOptions{})); !slices.Equal(got, want) {
		log.Fatalf("%s: y diverged from single-node serving", what)
	}
}

// mulOn binds a server's or a cluster's MulOpts to matrix "m" and opts.
func mulOn[O any](mul func(string, []float64, O) ([]float64, error), opts O) func([]float64) error {
	return func(x []float64) error { _, err := mul("m", x, opts); return err }
}

// measure returns the wall-clock req/s of -clients x -requests closed-loop Muls.
func measure(cols int, mul func([]float64) error) float64 {
	n, elapsed := closedLoop(*clients, *requests, cols, 0, nil, mul)
	return float64(n) / elapsed.Seconds()
}

// closedLoop is the one client loop: client g calls mul on randVec(cols,
// seed0+g) the moment its previous call returns, requests times, or until
// stop closes when requests is 0 (a failed call then goes uncounted instead
// of ending the run). It returns the successful calls and their wall time.
func closedLoop(clients, requests, cols int, seed0 int64, stop <-chan struct{}, mul func([]float64) error) (int64, time.Duration) {
	xs := make([][]float64, clients)
	for g := range xs {
		xs[g] = randVec(cols, seed0+int64(g))
	}
	var wg sync.WaitGroup
	var served atomic.Int64
	t0 := time.Now()
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; requests == 0 || i < requests; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := mul(x); err == nil {
					served.Add(1)
				} else if requests > 0 {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	return served.Load(), time.Since(t0)
}

// randVec returns n standard-normal values drawn from seed: every client's
// x, the CG right-hand side and the parity probe.
func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// wire is an http.RoundTripper that counts the body bytes it carries: each
// request's Content-Length and each response body, which it reads whole.
type wire struct{ n int64 }

func (w *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	w.n += max(req.ContentLength, 0) + int64(len(body))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func (w *wire) mb() string { return fmt.Sprintf("%.1f MB", float64(w.n)/1e6) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
