// PageRank by power iteration over the webbase twin — the paper's
// "connectivity graph collected from a web crawl" workload, and the
// archetype of the short-row, irregular matrices (§5.1) that stress loop
// overhead rather than bandwidth.
//
// With -evolve N the example keeps going after the first convergence:
// it registers the transition matrix with the serving layer, adds N new
// links through PATCH /v1/matrices/{id} (each new link rescales its
// source page's whole out-column), reruns PageRank over the live delta
// overlay, and verifies the ranks are BITWISE identical to a
// from-scratch rebuild of the mutated graph — before and after folding
// the deltas back into the base with a recompaction.
//
//	go run ./examples/pagerank [-scale 0.02] [-threads 4] [-evolve 32]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"
	"sort"

	spmv "repro"
	"repro/internal/server"
)

// pagerank runs power iteration with dangling-mass redistribution until
// the L1 step falls under tol. mul must return a fresh y = P·x each
// call (both spmv.Operator.MulAdd and server.Server.Mul qualify).
func pagerank(n int, outdeg []int, damping, tol float64, mul func([]float64) ([]float64, error)) ([]float64, int, error) {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	var iters int
	for iters = 1; iters <= 200; iters++ {
		y, err := mul(x)
		if err != nil {
			return nil, 0, err
		}
		// Dangling pages (out-degree 0) spread their mass uniformly.
		var dangling float64
		for i := range x {
			if outdeg[i] == 0 {
				dangling += x[i]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		var step float64
		for i := range y {
			v := damping*y[i] + base
			step += math.Abs(v - x[i])
			y[i] = v
		}
		x = y
		if step < tol {
			break
		}
	}
	return x, iters, nil
}

func main() {
	scale := flag.Float64("scale", 0.02, "webbase twin scale (1.0 = 1M pages)")
	threads := flag.Int("threads", 4, "parallel width")
	damping := flag.Float64("damping", 0.85, "PageRank damping factor")
	tol := flag.Float64("tol", 1e-9, "L1 convergence tolerance")
	evolve := flag.Int("evolve", 0, "after converging, add this many links via PATCH and re-rank over the delta overlay")
	flag.Parse()

	// The webbase twin is a row-wise adjacency matrix: entry (i,j) means
	// page i links to page j. PageRank iterates x' = d·P·x + teleport, so
	// we build the column-stochastic transition matrix P directly:
	// P[j][i] = 1/outdeg(i) for each link i→j.
	web, err := spmv.GenerateSuite("webbase", *scale, 11)
	if err != nil {
		log.Fatal(err)
	}
	n, _ := web.Dims()
	st := web.Stats()
	fmt.Printf("graph     : %d pages, %d links, %.1f links/page, %d dangling+unlinked rows\n",
		n, st.NNZ, st.NNZPerRow, st.EmptyRows)

	targets := make([][]int, n)
	web.Entries(func(i, j int, v float64) { targets[i] = append(targets[i], j) })
	// The crawl twin can report the same link twice; PageRank treats the
	// graph as simple, so collapse duplicates before normalizing columns
	// (a duplicate would otherwise double-weight its edge — and break the
	// -evolve bitwise check, since a "set" delta replaces the summed
	// value while a rebuild re-sums it).
	for i, ts := range targets {
		sort.Ints(ts)
		targets[i] = slices.Compact(ts)
	}
	outdeg := make([]int, n)
	transition := func() *spmv.Matrix {
		p := spmv.NewMatrix(n, n)
		for i, ts := range targets {
			outdeg[i] = len(ts)
			for _, j := range ts {
				if err := p.Set(j, i, 1/float64(len(ts))); err != nil {
					log.Fatal(err)
				}
			}
		}
		return p
	}
	p := transition()

	op, err := spmv.CompileParallel(p, spmv.DefaultTuneOptions(), *threads, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operator  : %s, %.2f bytes/link (%.1f%% below CSR32)\n",
		op.KernelName(), float64(op.FootprintBytes())/float64(op.NNZ()), 100*op.Savings())

	x, iters, err := pagerank(n, outdeg, *damping, *tol, func(x []float64) ([]float64, error) {
		y := make([]float64, n)
		return y, op.MulAdd(y, x)
	})
	if err != nil {
		log.Fatal(err)
	}

	type ranked struct {
		page int
		pr   float64
	}
	top := make([]ranked, n)
	var mass float64
	for i := range x {
		top[i] = ranked{i, x[i]}
		mass += x[i]
	}
	sort.Slice(top, func(a, b int) bool { return top[a].pr > top[b].pr })
	fmt.Printf("pagerank  : converged in %d iterations, total mass %.6f (want ~1)\n",
		iters, mass)
	fmt.Println("top pages :")
	for i := 0; i < 5 && i < len(top); i++ {
		fmt.Printf("  #%d page %-8d pr=%.3e (out-degree %d)\n",
			i+1, top[i].page, top[i].pr, outdeg[top[i].page])
	}

	if *evolve > 0 {
		evolveAndVerify(n, targets, outdeg, transition, *evolve, *threads, *damping, *tol)
	}
}

// evolveAndVerify grows the crawl by newLinks random links, served three
// ways — live delta overlay, from-scratch rebuild, and recompacted base —
// and insists all three converge to bitwise-identical ranks.
func evolveAndVerify(n int, targets [][]int, outdeg []int, transition func() *spmv.Matrix, newLinks, threads int, damping, tol float64) {
	cfg := server.DefaultConfig()
	cfg.Threads = threads
	cfg.RecompactThreshold = -1 // fold only when we say so, to rank over the live overlay first
	s := server.New(cfg)
	defer s.Close()
	if _, err := s.Register("pagerank", "webbase-P", transition()); err != nil {
		log.Fatal(err)
	}

	// A new link i→j rescales every entry of P's column i to
	// 1/(outdeg+1) and adds the (j, i) entry — one "set" per out-link.
	rng := rand.New(rand.NewSource(23))
	var deltas []server.Delta
	for added := 0; added < newLinks; {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		exists := false
		for _, k := range targets[i] {
			if k == j {
				exists = true
				break
			}
		}
		if exists {
			continue
		}
		targets[i] = append(targets[i], j)
		outdeg[i]++
		for _, k := range targets[i] {
			deltas = append(deltas, server.Delta{Op: "set", Row: int32(k), Col: int32(i), Val: 1 / float64(outdeg[i])})
		}
		added++
	}
	res, err := s.Patch("pagerank", deltas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evolve    : +%d links → %d deltas (seq %d, %d dirty rows, overlay %d B/sweep vs matrix %d B)\n",
		newLinks, res.Applied, res.Seq, res.DirtyRows, res.OverlayBytes, res.MatrixBytes)

	serverRank := func(sv *server.Server, id string) []float64 {
		ranks, iters, err := pagerank(n, outdeg, damping, tol, func(x []float64) ([]float64, error) {
			return sv.MulOpts(id, x, server.MulOptions{})
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("            converged in %d iterations\n", iters)
		return ranks
	}
	mustMatch := func(what string, got, want []float64) {
		for i := range got {
			if got[i] != want[i] {
				log.Fatalf("%s: ranks diverged at page %d: %x vs %x", what, i, got[i], want[i])
			}
		}
		fmt.Printf("            ✓ %s\n", what)
	}

	fmt.Println("overlay   : re-ranking over the live delta overlay")
	live := serverRank(s, "pagerank")

	fmt.Println("rebuild   : re-ranking a from-scratch rebuild of the mutated graph")
	s2 := server.New(cfg)
	defer s2.Close()
	if _, err := s2.Register("pagerank", "webbase-P", transition()); err != nil {
		log.Fatal(err)
	}
	rebuilt := serverRank(s2, "pagerank")
	mustMatch("overlay ranks bitwise-match the rebuild", live, rebuilt)

	fmt.Println("recompact : folding the delta log into a fresh tuned base")
	if err := s.Recompact("pagerank"); err != nil {
		log.Fatal(err)
	}
	folded := serverRank(s, "pagerank")
	mustMatch("post-recompaction ranks bitwise-match the rebuild", folded, rebuilt)
	stats := s.Stats()
	fmt.Printf("            (%d patch batches, %d deltas, %d recompactions)\n",
		stats.Patches, stats.DeltasApplied, stats.Recompactions)
}
