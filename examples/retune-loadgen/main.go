// retune-loadgen demonstrates workload-aware online re-tuning in the
// serving layer: the best SpMV encoding depends on the workload, not just
// the matrix (Williams et al., and the reason OSKI-style systems keep
// re-tuning as usage evolves), so the server watches each matrix's
// observed request mix and re-tunes when it drifts.
//
// The scenario: a matrix is registered while traffic is lone width-1
// requests — registration compiles for a single-vector workload, with
// 32-bit indices. Then the workload shifts to wide bursts (width-16 fused
// sweeps, e.g. a block-Krylov client or a traffic spike the batcher
// coalesces). The background re-tuner notices the fused-width histogram
// drifting, re-runs the tuner over the serving candidate set off the hot
// path, shadow-benchmarks the candidate on the captured request shapes,
// and promotes it atomically — after which every sweep streams the
// index-narrowed encoding (16-bit columns where the matrix is at most
// 65536 wide), cutting the modeled matrix stream per sweep ~1.2x without
// moving a single response bit.
//
//	go run ./examples/retune-loadgen [-suite Dense] [-scale 0.05] [-burst 16]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/server"
)

func main() {
	suite := flag.String("suite", "Dense", "Table 3 suite twin to serve")
	scale := flag.Float64("scale", 0.05, "suite scale")
	burst := flag.Int("burst", 16, "concurrent clients per burst (the shifted workload's fused width)")
	phase1 := flag.Int("phase1", 64, "lone width-1 requests before the shift")
	rounds := flag.Int("rounds", 40, "max bursts to run while waiting for the promotion")
	flag.Parse()

	cfg := server.DefaultConfig()
	cfg.MaxBatch = *burst
	cfg.BatchWindow = 2 * time.Millisecond
	cfg.Adaptive = true
	cfg.RetuneInterval = 100 * time.Millisecond
	cfg.RetuneMinRequests = 32
	s := server.New(cfg)
	defer s.Close()

	m, err := spmv.GenerateSuite(*suite, *scale, 7)
	if err != nil {
		log.Fatal(err)
	}
	name := *suite
	info, err := s.Register("m", name, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %s: %dx%d, %d nnz, kernel %s\n", name, info.Rows, info.Cols, info.NNZ, info.Kernel)

	xs := make([][]float64, *burst)
	for g := range xs {
		rng := rand.New(rand.NewSource(int64(g)))
		xs[g] = make([]float64, info.Cols)
		for i := range xs[g] {
			xs[g][i] = rng.NormFloat64()
		}
	}

	// Phase 1: lone width-1 requests — the workload registration guessed.
	for i := 0; i < *phase1; i++ {
		if _, err := s.MulOpts("m", xs[i%len(xs)], server.MulOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	rep, err := s.Tuning("m")
	if err != nil {
		log.Fatal(err)
	}
	before := rep
	fmt.Printf("phase 1 (lone requests): median width %d, drift %.2f, %.2f MB matrix stream per fused sweep, generation %d\n",
		rep.ObservedMedianWidth, rep.Drift, float64(rep.MatrixBytes)/1e6, rep.Generation)

	// Phase 2: the workload shifts to wide bursts; the background
	// re-tuner (every 100ms here) detects the drift and promotes.
	fmt.Printf("phase 2: shifting to width-%d bursts...\n", *burst)
	promoted := false
	for r := 0; r < *rounds && !promoted; r++ {
		oneBurst(s, xs)
		if rep, err = s.Tuning("m"); err != nil {
			log.Fatal(err)
		}
		promoted = rep.Generation > before.Generation
		if !promoted {
			time.Sleep(25 * time.Millisecond)
		}
	}
	if !promoted {
		log.Fatalf("no promotion after %d bursts: %+v", *rounds, rep)
	}
	fmt.Printf("promoted at generation %d: kernel %s (wide=%v symmetric=%v), tuned for width %d\n",
		rep.Generation, rep.Kernel, rep.Wide, rep.Symmetric, rep.TunedWidth)
	for _, ev := range rep.Events {
		if ev.Decision == "promoted" {
			fmt.Printf("  shadow benchmark on captured shapes: %.0f -> %.0f modeled B/request (%.2fx better)\n",
				ev.IncumbentBytesPerRequest, ev.CandidateBytesPerRequest,
				ev.IncumbentBytesPerRequest/ev.CandidateBytesPerRequest)
		}
	}
	fmt.Printf("  fused matrix stream per sweep: %.2f -> %.2f MB (%.2fx improvement)\n",
		float64(before.MatrixBytes)/1e6, float64(rep.MatrixBytes)/1e6,
		float64(before.MatrixBytes)/float64(rep.MatrixBytes))

	// Phase 3: steady state on the promoted operator.
	for r := 0; r < 20; r++ {
		oneBurst(s, xs)
	}
	st := s.Stats()
	fmt.Printf("phase 3 (steady state): %d requests in %d sweeps (mean width %.1f), %.1f MB matrix stream saved by fusion, %d promotions / %d rejections\n",
		st.Requests, st.Sweeps, st.MeanFusedWidth(), float64(st.SavedBytes)/1e6, st.RetunePromotions, st.RetuneRejections)
}

// oneBurst fires len(xs) concurrent requests from a common start so the
// batcher fuses them into one wide sweep.
func oneBurst(s *server.Server, xs [][]float64) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for g := range xs {
		go func(g int) {
			defer wg.Done()
			<-start
			if _, err := s.MulOpts("m", xs[g], server.MulOptions{}); err != nil {
				log.Fatal(err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
