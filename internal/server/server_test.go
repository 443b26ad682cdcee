package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/matrix"
)

// testMatrix builds a small deterministic sparse matrix.
func testMatrix(t testing.TB, rows, cols, nnz int, seed int64) *spmv.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := spmv.NewMatrix(rows, cols)
	for n := 0; n < nnz; n++ {
		if err := m.Set(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	// Dense main diagonal keeps every row populated.
	for i := 0; i < min(rows, cols); i++ {
		if err := m.Set(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func testVector(cols int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// reference computes y = A·x through the public serial API.
// mulBits fetches y = A·x through the server and returns it for bitwise
// comparison.
func mulBits(t *testing.T, s *Server, id string, x []float64) []float64 {
	t.Helper()
	y, err := s.MulOpts(id, x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// burst fires width concurrent Muls of the same inputs and returns the
// results in input order. A start barrier makes the requests land inside
// one batch window so the batcher fuses them.
func burst(t *testing.T, s *Server, id string, xs [][]float64) [][]float64 {
	t.Helper()
	start := make(chan struct{})
	out := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for v := range xs {
		go func(v int) {
			defer wg.Done()
			<-start
			out[v], errs[v] = s.MulOpts(id, xs[v], MulOptions{})
		}(v)
	}
	close(start)
	wg.Wait()
	for v, err := range errs {
		if err != nil {
			t.Fatalf("burst request %d: %v", v, err)
		}
	}
	return out
}

// fusedBits runs one fused batch of width len(xs) over the entry's serving
// snapshot — the batch a full batcher hands executeBatch, without depending
// on the batcher to coalesce — and returns each lane's y.
func fusedBits(t *testing.T, s *Server, id string, xs [][]float64) [][]float64 {
	t.Helper()
	e := mustEntry(t, s, id)
	reqs := make([]*pending, len(xs))
	for v, x := range xs {
		reqs[v] = &pending{x: x, ch: make(chan mulResult, 1)}
	}
	s.executeBatch(e, s.cfg.Sched.DefaultClass, &batcher{}, reqs)
	ys := make([][]float64, len(xs))
	for v, p := range reqs {
		r := <-p.ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		ys[v] = r.y
	}
	return ys
}

func reference(t testing.TB, m *spmv.Matrix, x []float64) []float64 {
	t.Helper()
	op, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	y, err := op.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestRegistryOperatorCache pins what the per-entry operator cache used to
// guarantee, now that the serving snapshot is the only holder: registration
// runs the tuner exactly once, serving never compiles, and a rejected
// duplicate registration compiles nothing.
func TestRegistryOperatorCache(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	m := testMatrix(t, 200, 200, 2000, 1)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Compiles; got != 1 {
		t.Fatalf("register ran %d compiles, want exactly 1 (tune once per matrix)", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.MulOpts("a", testVector(200, int64(i)), MulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Compiles; got != 1 {
		t.Errorf("compiles=%d after serving, want 1", got)
	}

	// Duplicate registration is rejected.
	if _, err := s.Register("a", "test", m); err == nil {
		t.Error("duplicate id accepted")
	}
	if got := s.Stats().Compiles; got != 1 {
		t.Errorf("compiles=%d after a rejected duplicate, want 1", got)
	}

	// A symmetric matrix is compiled once too: the family is decided
	// inside the one compile, not by compiling it both ways.
	s2 := New(DefaultConfig())
	defer s2.Close()
	info, err := s2.Register("sym", "poisson", poissonMatrix(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Symmetric {
		t.Errorf("Poisson-20 served general: %+v", info)
	}
	if got := s2.Stats().Compiles; got != 1 {
		t.Errorf("symmetric register ran %d compiles, want exactly 1", got)
	}
}

// TestBatcherFusesConcurrentRequests is the acceptance demonstration: 4
// concurrent single-vector Mul calls coalesce into ONE MultiVec sweep and
// every caller gets the same answer as independent execution.
func TestBatcherFusesConcurrentRequests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 4
	cfg.BatchWindow = 5 * time.Second // generous: the 4th join triggers execution
	cfg.Adaptive = false
	s := New(cfg)
	defer s.Close()

	m := testMatrix(t, 300, 280, 4000, 2)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}

	const k = 4
	xs := make([][]float64, k)
	wants := make([][]float64, k)
	for v := range xs {
		xs[v] = testVector(280, int64(v+10))
		wants[v] = reference(t, m, xs[v])
	}

	got := make([][]float64, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for v := 0; v < k; v++ {
		go func(v int) {
			defer wg.Done()
			got[v], errs[v] = s.MulOpts("a", xs[v], MulOptions{})
		}(v)
	}
	wg.Wait()
	for v := 0; v < k; v++ {
		if errs[v] != nil {
			t.Fatalf("request %d: %v", v, errs[v])
		}
		if d := maxAbsDiff(got[v], wants[v]); d > 1e-10 {
			t.Errorf("request %d: batched result differs from independent Mul by %g", v, d)
		}
	}

	st := s.Stats()
	if st.Sweeps != 1 {
		t.Errorf("%d sweeps for %d concurrent requests, want 1 fused sweep", st.Sweeps, k)
	}
	if st.FusedWidthHist[k] != 1 {
		t.Errorf("fused-width histogram %v, want one width-%d sweep", st.FusedWidthHist[:k+1], k)
	}
	if st.Requests != k || st.FusedRequests != k {
		t.Errorf("requests=%d fusedRequests=%d, want %d/%d", st.Requests, st.FusedRequests, k, k)
	}
	if st.SavedBytes <= 0 {
		t.Error("fusion reported no matrix-stream bytes saved")
	}
	if st.MatrixBytes <= 0 || st.SourceBytes <= 0 || st.DestBytes <= 0 {
		t.Errorf("traffic counters not populated: %+v", st)
	}
}

// TestSingleRequestFallsBack checks the sparse-traffic path: a lone
// request runs on the per-request parallel operator, not a fused sweep.
func TestSingleRequestFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = true
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 100, 100, 800, 3)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	x := testVector(100, 5)
	want := reference(t, m, x)
	y, err := s.MulOpts("a", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(y, want); d > 1e-10 {
		t.Errorf("single request off by %g", d)
	}
	st := s.Stats()
	if st.SingleFallbacks != 1 || st.FusedWidthHist[1] != 1 {
		t.Errorf("lone request not served by the single path: %+v", st)
	}
}

// TestSerialCallerSkipsLinger: a caller that waits for each answer before
// sending the next can never share a sweep, so the adaptive batcher must
// not make it wait out the window. At a 20 ms window, a linger on every
// request after the first would take about 400 ms.
func TestSerialCallerSkipsLinger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchWindow = 20 * time.Millisecond
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 300, 280, 4000, 2)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	x := testVector(280, 3)
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := s.MulOpts("a", x, MulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d >= 200*time.Millisecond {
		t.Errorf("20 serial requests took %v at a 20 ms window: the leaders lingered", d)
	}
}

// TestClosedLoopKeepsFusing: 16 closed-loop callers on the default
// configuration come back within the window of their hand-out, so the
// return-aware linger keeps gathering them into wide sweeps. The width is
// read after a warm-up and before the callers stop: callers that start
// together, or finish one by one, are not a closed loop.
func TestClosedLoopKeepsFusing(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	m := testMatrix(t, 400, 350, 6000, 6)
	if _, err := s.Register("hot", "test", m); err != nil {
		t.Fatal(err)
	}
	x := testVector(350, 9)
	var wg sync.WaitGroup
	var stop atomic.Bool
	errCh := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.MulOpts("hot", x, MulOptions{}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	st0 := s.Stats()
	time.Sleep(200 * time.Millisecond)
	st1 := s.Stats()
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	w := float64(st1.Requests-st0.Requests) / float64(max(st1.Sweeps-st0.Sweeps, 1))
	if w < 6 {
		t.Errorf("16 closed-loop callers fused a mean width of %.2f, want >= 6", w)
	}
	t.Logf("closed loop: mean fused width %.2f over %d sweeps", w, st1.Sweeps-st0.Sweeps)
}

// TestShortWindowLastsAsConfigured: with adaptive off every lone request
// lingers the full window, and a sub-millisecond window must last about
// what it says, not the ≈ 1 ms the runtime timer rounds it up to.
func TestShortWindowLastsAsConfigured(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchWindow = 300 * time.Microsecond
	cfg.Adaptive = false
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 300, 280, 4000, 2)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	x := testVector(280, 3)
	lat := make([]time.Duration, 21)
	for i := range lat {
		start := time.Now()
		if _, err := s.MulOpts("a", x, MulOptions{}); err != nil {
			t.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	slices.Sort(lat)
	if p50 := lat[len(lat)/2]; p50 < 300*time.Microsecond || p50 >= 700*time.Microsecond {
		t.Errorf("lone request median %v at a 300 µs window, want [300 µs, 700 µs)", p50)
	}
}

func TestMulValidation(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	if _, err := s.MulOpts("nope", make([]float64, 3), MulOptions{}); err == nil {
		t.Error("unknown matrix accepted")
	}
	m := testMatrix(t, 10, 10, 20, 4)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MulOpts("a", make([]float64, 9), MulOptions{}); err == nil {
		t.Error("wrong-length x accepted")
	}
	if _, err := s.Register("", "test", testMatrix(t, 5, 5, 5, 5)); err != nil {
		t.Error("generated-id registration failed:", err)
	}
}

// TestConcurrentHammer drives one matrix from many goroutines with the
// adaptive batcher on, verifying every result against its reference. Run
// with -race in CI; widths vary run to run but correctness must not.
func TestConcurrentHammer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 8
	cfg.BatchWindow = 100 * time.Microsecond
	cfg.Adaptive = true
	s := New(cfg)
	defer s.Close()

	m := testMatrix(t, 400, 350, 6000, 6)
	if _, err := s.Register("hot", "test", m); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	iters := 25
	if testing.Short() {
		iters = 8
	}
	xs := make([][]float64, goroutines)
	wants := make([][]float64, goroutines)
	for g := range xs {
		xs[g] = testVector(350, int64(100+g))
		wants[g] = reference(t, m, xs[g])
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				y, err := s.MulOpts("hot", xs[g], MulOptions{})
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				if d := maxAbsDiff(y, wants[g]); d > 1e-10 {
					errCh <- fmt.Errorf("goroutine %d iter %d: off by %g", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.Stats()
	if want := uint64(goroutines * iters); st.Requests != want {
		t.Errorf("requests=%d, want %d", st.Requests, want)
	}
	if st.Requests != st.FusedRequests+st.SingleFallbacks {
		t.Errorf("request accounting leak: %+v", st)
	}
	t.Logf("hammer: %d requests in %d sweeps (mean fused width %.2f), %.1f MB matrix stream saved",
		st.Requests, st.Sweeps, st.MeanFusedWidth(), float64(st.SavedBytes)/1e6)
}

// benchServer measures closed-loop serving throughput at the given client
// concurrency; batching on or off is the only difference between the two
// benchmarks below.
func benchServer(b *testing.B, batched bool) {
	cfg := DefaultConfig()
	if batched {
		// Width cap matches the client concurrency so a full batch
		// triggers execution without waiting out the linger window.
		cfg.MaxBatch = 8
		cfg.BatchWindow = 200 * time.Microsecond
		cfg.Adaptive = false
	} else {
		cfg.MaxBatch = 1
	}
	s := New(cfg)
	defer s.Close()
	// LP (wide aspect, huge source vector) is the suite matrix where the
	// register-blocked per-request kernel gains least, so the fused sweep's
	// matrix-stream amortization shows through clearly (§5.1).
	m, err := spmv.GenerateSuite("LP", 0.1, 9)
	if err != nil {
		b.Fatal(err)
	}
	info, err := s.Register("bench", "LP", m)
	if err != nil {
		b.Fatal(err)
	}
	x := testVector(info.Cols, 11)
	b.SetParallelism(8) // 8*GOMAXPROCS concurrent clients
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.MulOpts("bench", x, MulOptions{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := s.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.Requests)/secs, "req/s")
	}
	b.ReportMetric(st.MeanFusedWidth(), "fused-width")
}

func BenchmarkServeUnbatched(b *testing.B) { benchServer(b, false) }
func BenchmarkServeBatched(b *testing.B)   { benchServer(b, true) }

// BenchmarkServeSerial is one caller on DefaultConfig: every request is a
// lone width-1 sweep, so any linger the batcher adds shows in µs/op. The
// LP twin at 0.02 sweeps in well under the window's four multiples that
// the old interval rule needed to see between arrivals.
func BenchmarkServeSerial(b *testing.B) {
	s := New(DefaultConfig())
	defer s.Close()
	m, err := spmv.GenerateSuite("LP", 0.02, 9)
	if err != nil {
		b.Fatal(err)
	}
	info, err := s.Register("bench", "LP", m)
	if err != nil {
		b.Fatal(err)
	}
	x := testVector(info.Cols, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MulOpts("bench", x, MulOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
}

// TestRegistrationNarrowingDeterministicBitwise: registration decides the
// index width once, from the matrix alone, and 16-bit indices sum in the
// 32-bit order. The same matrix served narrowed and compiled by the
// library with ReduceIndices off (at the same thread count) streams fewer
// bytes narrowed and returns the same bits at widths 1 and 8 — lone
// requests, batcher bursts and full fused sweeps alike — on a CSR matrix
// and on a BCSR 4×4 one. GET /v1/matrices/{id}/tuning reports the
// registration decision.
func TestRegistrationNarrowingDeterministicBitwise(t *testing.T) {
	cant, err := spmv.GenerateSuite("FEM/Cantilever", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	const threads = 2
	cfg := DefaultConfig()
	cfg.Threads = threads
	cfg.Workers = 2
	cfg.MaxBatch = 8
	cfg.BatchWindow = 5 * time.Millisecond
	s := New(cfg)
	defer s.Close()
	// The 32-bit reference: the serving candidate set with general storage
	// and 32-bit indices only.
	opt32 := servingTune()
	opt32.ReduceIndices, opt32.TrySymmetric = false, false
	for _, tc := range []struct {
		id     string
		m      *spmv.Matrix
		format string
		shape  matrix.BlockShape
	}{
		{"csr", testMatrix(t, 300, 280, 6000, 21), "CSR", matrix.BlockShape{R: 1, C: 1}},
		{"bcsr", cant, "BCSR", matrix.BlockShape{R: 4, C: 4}},
	} {
		info, err := s.RegisterOpts(tc.id, tc.id, tc.m, RegisterOptions{Symmetric: new(bool)})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := spmv.CompileParallel(tc.m, opt32, threads, 1)
		if err != nil {
			t.Fatal(err)
		}
		ops := [2]*spmv.Operator{ref, mustEntry(t, s, tc.id).cur.Load().op} // [0] 32-bit, [1] narrowed
		for n, op := range ops {
			for _, d := range op.Decisions() {
				if bits := 32 >> n; d.Format != tc.format || d.Shape != tc.shape || d.IndexBits != bits {
					t.Errorf("%s, ReduceIndices=%v: a part compiled %s %v/%d, want %s %v/%d",
						tc.id, n == 1, d.Format, d.Shape, d.IndexBits, tc.format, tc.shape, bits)
				}
			}
		}
		tr32, err := ref.Traffic(spmv.TrafficOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if info.MatrixBytes >= tr32.MatrixBytes {
			t.Errorf("%s: narrowed matrix stream %d B, 32-bit %d B", tc.id, info.MatrixBytes, tr32.MatrixBytes)
		}

		_, cols := tc.m.Dims()
		xs := make([][]float64, 8)
		for v := range xs {
			xs[v] = testVector(cols, int64(500+v))
		}
		var lone [2][][]float64
		for _, x := range xs {
			y, err := ref.Mul(x)
			if err != nil {
				t.Fatal(err)
			}
			lone[0] = append(lone[0], y)
			lone[1] = append(lone[1], mulBits(t, s, tc.id, x))
		}
		wide, err := ref.WideMulti(len(xs))
		if err != nil {
			t.Fatal(err)
		}
		fused32, err := wide.MulAll(xs)
		if err != nil {
			t.Fatal(err)
		}
		fused, bursted := fusedBits(t, s, tc.id, xs), burst(t, s, tc.id, xs)
		for v := range xs {
			if !sameBits(fused32[v], lone[0][v]) {
				t.Fatalf("%s, ReduceIndices=false, lane %d: fused bits differ from lone bits", tc.id, v)
			}
			if !sameBits(fused[v], lone[1][v]) || !sameBits(bursted[v], lone[1][v]) {
				t.Fatalf("%s, ReduceIndices=true, lane %d: fused bits differ from lone bits", tc.id, v)
			}
			if !sameBits(lone[1][v], lone[0][v]) {
				t.Fatalf("%s lane %d: narrowed indices moved served bits", tc.id, v)
			}
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/matrices/bcsr/tuning")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/matrices/bcsr/tuning: status %d", resp.StatusCode)
	}
	rep := decode[TuningReport](t, resp)
	if want := mustEntry(t, s, "bcsr").listing(); rep.Generation != 0 || rep.Symmetric ||
		rep.Kernel != want.Kernel || rep.MatrixBytes != want.MatrixBytes || len(rep.Events) != 0 {
		t.Errorf("tuning report %+v, want generation 0, kernel %s, %d matrix bytes, no events", rep, want.Kernel, want.MatrixBytes)
	}
	if resp404, err := srv.Client().Get(srv.URL + "/v1/matrices/nope/tuning"); err != nil {
		t.Fatal(err)
	} else {
		resp404.Body.Close()
		if resp404.StatusCode != 404 {
			t.Errorf("tuning endpoint for unknown matrix: status %d, want 404", resp404.StatusCode)
		}
	}
}

// TestRegisterDimensionGuards pins the registration sanity checks: row
// counts may exceed stored entries only within the 64x empty-row
// allowance, both dimensions are capped absolutely, and a shard-band
// shape (few rows, full column width, few entries) stays registrable.
func TestRegisterDimensionGuards(t *testing.T) {
	s := New(Config{Threads: 1, Workers: 1, MaxBatch: 1})
	defer s.Close()
	reg := s.reg

	band := spmv.NewMatrix(4000, 500000) // a coordinator's row band: wide, sparse
	for i := 0; i < 4000; i++ {
		if err := band.Set(i, i*100, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.register("band", "band", band); err != nil {
		t.Errorf("legitimate shard-band shape rejected: %v", err)
	}

	blowup := spmv.NewMatrix(50_000_000, 10)
	_ = blowup.Set(0, 0, 1)
	if _, err := reg.register("blowup", "", blowup); err == nil {
		t.Error("50M near-empty rows accepted")
	}
	huge := spmv.NewMatrix(MaxDeclaredDim+1, 10)
	_ = huge.Set(0, 0, 1)
	if _, err := reg.register("huge", "", huge); err == nil {
		t.Error("rows beyond MaxDeclaredDim accepted")
	}
	wide := spmv.NewMatrix(10, MaxDeclaredDim+1)
	_ = wide.Set(0, 0, 1)
	if _, err := reg.register("wide", "", wide); err == nil {
		t.Error("cols beyond MaxDeclaredDim accepted")
	}
}
