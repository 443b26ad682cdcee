package server

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkConcurrentSessions runs k CG sessions at once against one
// registered 2-D Poisson matrix on DefaultConfig, each for a fixed budget
// of sessionBenchIters iterations (tolerance 0, so every round does the
// same work), in the general family (registered "symmetric": false) and
// the default one (SymCSR). One op is one round of k sessions.
// iters/s is the aggregate iteration rate; session-width is the mean fused
// width of the round's sweeps, which are the session sweeps only.
func BenchmarkConcurrentSessions(b *testing.B) {
	const sessionBenchIters = 200
	for _, side := range []int{150, 400} {
		m := poissonMatrix(b, side)
		n := side * side
		for _, fam := range []struct {
			name string
			sym  *bool
		}{{"general", new(bool)}, {"default", nil}} {
			for _, k := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("n=%d/%s/k=%d", side, fam.name, k), func(b *testing.B) {
					s := New(DefaultConfig())
					defer s.Close()
					if _, err := s.RegisterOpts("p", "poisson", m, RegisterOptions{Symmetric: fam.sym}); err != nil {
						b.Fatal(err)
					}
					bs := make([][]float64, k)
					for i := range bs {
						bs[i] = testVector(n, int64(i+1))
					}
					round := func() int {
						iters := make([]int, k)
						var wg sync.WaitGroup
						for i := range bs {
							wg.Add(1)
							go func(i int) {
								defer wg.Done()
								st, err := s.SolveOpts("p", SolveRequest{Method: "cg", B: bs[i], MaxIters: sessionBenchIters}, SolveOptions{})
								for err == nil && st.State == stateRunning {
									st, err = s.SolveStatus(st.SID, solveWaitCap)
								}
								if err != nil {
									b.Error(err)
								}
								iters[i] = st.Iters
							}(i)
						}
						wg.Wait()
						total := 0
						for _, it := range iters {
							total += it
						}
						return total
					}
					round() // warm: wide views and pooled blocks
					before := s.Stats()
					b.ResetTimer()
					iters := 0
					for range b.N {
						iters += round()
					}
					b.StopTimer()
					after := s.Stats()
					var sweeps, lanes uint64
					for w := 1; w <= MaxTrackedWidth; w++ {
						d := after.FusedWidthHist[w] - before.FusedWidthHist[w]
						sweeps += d
						lanes += uint64(w) * d
					}
					b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "iters/s")
					if sweeps > 0 {
						b.ReportMetric(float64(lanes)/float64(sweeps), "session-width")
					}
				})
			}
		}
	}
}
