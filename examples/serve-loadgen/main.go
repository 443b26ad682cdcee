// serve-loadgen drives the in-process serving subsystem (*server.Server)
// with concurrent single-vector Mul requests, once with the adaptive
// batcher enabled and once without, and reports the throughput of each —
// demonstrating that coalescing concurrent requests into fused multi-RHS
// sweeps (§2.1's multiple-vectors optimization) beats per-request serving:
// the matrix streams once for up to k requests.
//
//	go run ./examples/serve-loadgen [-suite LP] [-scale 0.1] [-clients 8] [-requests 400]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/server"
)

func run(name string, cfg server.Config, suite string, scale float64, clients, requests int) (reqPerSec float64) {
	s := server.New(cfg)
	defer s.Close()
	info, err := s.RegisterSuite("m", suite, scale, 7)
	if err != nil {
		log.Fatal(err)
	}

	xs := make([][]float64, clients)
	for g := range xs {
		rng := rand.New(rand.NewSource(int64(g)))
		xs[g] = make([]float64, info.Cols)
		for i := range xs[g] {
			xs[g][i] = rng.NormFloat64()
		}
	}

	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				if _, err := s.MulOpts("m", xs[g], server.MulOptions{}); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	st := s.Stats()
	reqPerSec = float64(st.Requests) / elapsed.Seconds()
	fmt.Printf("%-10s %8.0f req/s  %6d sweeps for %5d requests (mean width %.2f)  %7.1f MB matrix stream saved\n",
		name, reqPerSec, st.Sweeps, st.Requests, st.MeanFusedWidth(), float64(st.SavedBytes)/1e6)
	if lat := s.Latency(); lat != nil {
		if h, ok := lat.Matrix["m"]; ok {
			fmt.Printf("%-10s measured mul latency: p50 %.0fµs  p99 %.0fµs  (mean %.0fµs over %d requests)\n",
				"", h.P50US, h.P99US, h.MeanUS, h.Count)
		}
	}
	return reqPerSec
}

func main() {
	suite := flag.String("suite", "LP", "Table 3 suite matrix to serve")
	scale := flag.Float64("scale", 0.1, "matrix scale")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	requests := flag.Int("requests", 400, "requests per client")
	maxBatch := flag.Int("max-batch", 8, "widest fused sweep when batching")
	window := flag.Duration("window", 200*time.Microsecond, "batch linger window")
	flag.Parse()

	fmt.Printf("serving %s twin at scale %g to %d clients x %d requests\n\n",
		*suite, *scale, *clients, *requests)

	unbatched := server.DefaultConfig()
	unbatched.MaxBatch = 1
	u := run("unbatched", unbatched, *suite, *scale, *clients, *requests)

	batched := server.DefaultConfig()
	batched.MaxBatch = *maxBatch
	batched.BatchWindow = *window
	batched.Adaptive = false
	b := run("batched", batched, *suite, *scale, *clients, *requests)

	fmt.Printf("\nbatched serving: %.2fx the unbatched throughput\n", b/u)
}
