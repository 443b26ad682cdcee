// slo-loadgen demonstrates what SLO-aware scheduling buys under
// saturation: a mixed workload — open-loop latency-class clients (fixed
// arrival rate, the interactive tier) against closed-loop bulk-class
// clients (as fast as the server lets them, the batch tier) — is run
// twice on a deliberately narrow server (one sweep slot), once with the
// scheduler off (FIFO batch formation) and once with it on (strict
// class priority + shortest-job-first + aging).
//
// With FIFO, bulk requests queue ahead of interactive ones and the
// latency-class p99 inflates to the full queue depth. With the
// scheduler, latency-class requests jump the queue, while the aging
// escalator keeps bulk progressing — the run reports per-class p50/p99,
// bulk throughput (which must stay within a few percent of FIFO: the
// slot is busy either way, scheduling only reorders), the Jain fairness
// index over tenants, and admission rejections.
//
//	go run ./examples/slo-loadgen [-suite LP] [-scale 0.05] [-duration 5s]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
)

type result struct {
	latP50, latP99   float64 // latency-class µs
	bulkP50, bulkP99 float64 // bulk-class µs
	latServed        int64
	bulkServed       int64
	jain             float64
	rejected         uint64
}

func run(name string, sc sched.Config, suite string, scale float64, duration time.Duration, latClients, bulkClients int, latRate float64) result {
	cfg := server.DefaultConfig()
	// One sweep slot and no fusion: a narrow server saturates under the
	// bulk load, so queueing policy is the whole story.
	cfg.Workers = 1
	cfg.MaxConcurrentSweeps = 1
	cfg.MaxBatch = 1
	cfg.Sched = sc
	s := server.New(cfg)
	defer s.Close()
	var api server.API = s

	info, err := api.RegisterSuite("m", suite, scale, 7)
	if err != nil {
		log.Fatal(err)
	}
	mkVec := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, info.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var latServed, bulkServed atomic.Int64

	// Closed-loop bulk tier: each client issues the next request the
	// moment the previous one returns.
	for g := 0; g < bulkClients; g++ {
		wg.Add(1)
		x := mkVec(int64(1000 + g))
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := api.MulOpts("m", x, server.MulOptions{Tenant: "batch", Class: "bulk"}); err == nil {
					bulkServed.Add(1)
				}
			}
		}()
	}
	// Open-loop latency tier: fixed arrival rate regardless of backlog,
	// the way interactive traffic actually arrives.
	interval := time.Duration(float64(time.Second) / latRate)
	for g := 0; g < latClients; g++ {
		wg.Add(1)
		x := mkVec(int64(g))
		go func() {
			defer wg.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if _, err := api.MulOpts("m", x, server.MulOptions{Tenant: "interactive", Class: "latency"}); err == nil {
						latServed.Add(1)
					}
				}
			}
		}()
	}

	time.Sleep(duration)
	close(stop)
	wg.Wait()

	rep, err := api.StatsReport()
	if err != nil {
		log.Fatal(err)
	}
	r := result{latServed: latServed.Load(), bulkServed: bulkServed.Load()}
	if rep.Latency != nil {
		if h, ok := rep.Latency.Class["latency"]; ok {
			r.latP50, r.latP99 = h.P50US, h.P99US
		}
		if h, ok := rep.Latency.Class["bulk"]; ok {
			r.bulkP50, r.bulkP99 = h.P50US, h.P99US
		}
	}
	if rep.Admission != nil {
		r.jain = rep.Admission.JainFairness
		for _, ten := range rep.Admission.Tenants {
			r.rejected += ten.RejectedRequests
		}
	}
	fmt.Printf("%-6s latency-class p50 %8.0fµs  p99 %8.0fµs  (%d served @ open loop)\n",
		name, r.latP50, r.latP99, r.latServed)
	fmt.Printf("%-6s bulk-class    p50 %8.0fµs  p99 %8.0fµs  (%d served @ closed loop)\n",
		"", r.bulkP50, r.bulkP99, r.bulkServed)
	if rep.Admission != nil {
		fmt.Printf("%-6s jain fairness %.3f  admission rejections %d\n", "", r.jain, r.rejected)
	}
	return r
}

func main() {
	suite := flag.String("suite", "LP", "Table 3 suite matrix to serve")
	scale := flag.Float64("scale", 0.05, "matrix scale")
	duration := flag.Duration("duration", 5*time.Second, "measured run length per mode")
	latClients := flag.Int("lat-clients", 4, "open-loop latency-class clients")
	bulkClients := flag.Int("bulk-clients", 8, "closed-loop bulk-class clients")
	latRate := flag.Float64("lat-rate", 50, "arrival rate per latency client, req/s")
	flag.Parse()

	fmt.Printf("mixed SLO load on a 1-slot server: %d open-loop latency clients @ %g req/s vs %d closed-loop bulk clients, %s per mode\n\n",
		*latClients, *latRate, *bulkClients, *duration)

	fifo := run("fifo", sched.Config{}, *suite, *scale, *duration, *latClients, *bulkClients, *latRate)
	slo := run("sched", sched.Config{Enabled: true}, *suite, *scale, *duration, *latClients, *bulkClients, *latRate)

	fmt.Println()
	if fifo.latP99 > 0 && slo.latP99 > 0 {
		fmt.Printf("latency-class p99: %.0fµs -> %.0fµs (%.1fx lower with scheduling)\n",
			fifo.latP99, slo.latP99, fifo.latP99/slo.latP99)
	}
	if fifo.bulkServed > 0 {
		fmt.Printf("bulk throughput:   %d -> %d requests (%.1f%% of FIFO)\n",
			fifo.bulkServed, slo.bulkServed, 100*float64(slo.bulkServed)/float64(fifo.bulkServed))
	}
}
