package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/server"
)

// workload is one traffic mix. Sizes and limits are frozen here; README.md
// says where each number comes from.
type workload struct {
	name    string
	open    bool          // open loop on a seeded arrival schedule; else closed loop
	clients int           // closed: ops in flight; open: workers that issue arrivals
	rate    float64       // open: arrivals per second
	limit   time.Duration // ontime_share counts ops that succeed within this; 4× the A/A median p50
	build   func(seed int64, p int) (instance, error)
}

// instance is a workload's generated inputs plus the system objects under
// test. build makes the inputs from the seed; the program under test only
// ever sees those inputs.
type instance interface {
	// setup makes the system's own set-up calls (Compile*, Register*,
	// RegisterSharded, HTTP register) on fresh objects. setup_s times it.
	setup() error
	// teardown releases what the last setup built.
	teardown()
	// do performs op i of client c; its duration is the op's latency.
	do(c, i int, sp spanRef) (out any, err error)
	// verify checks an op's output, outside the timed interval.
	verify(c, i int, out any) error
	// begin and end bracket every phase; end returns the background ops
	// (mutate-read's PATCHes) attempted and failed during it.
	begin(tr *tracer)
	end() (attempted, failed int)
	// finish makes the end-of-run checks.
	finish() error
	// stats sums Server.Stats over every server of the workload.
	stats() server.Stats
}

var workloads = []workload{
	{name: "lib-sweep", clients: 1, limit: 94 * time.Millisecond, build: newLibSweep},
	{name: "serve-fused", clients: 16, limit: 34 * time.Millisecond, build: newServeFused},
	{name: "mutate-read", open: true, clients: 8, rate: 300, limit: 8900 * time.Microsecond, build: newMutateRead},
	{name: "http-wide", limit: 180 * time.Millisecond, build: newHTTPWide}, // clients = P
	{name: "shard-cg", clients: 1, limit: 2 * time.Second, build: newShardCG},
}

const (
	mulTol   = 1e-10 // relative max-norm error of a product against the naive CSR reference
	solveTol = 1e-8  // CG relative residual
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// reference multiplies with the plain CSR operator: what every output is
// checked against.
func reference(m *spmv.Matrix, xs [][]float64) ([][]float64, error) {
	op, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		return nil, err
	}
	refs := make([][]float64, len(xs))
	for k, x := range xs {
		if refs[k], err = op.Mul(x); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// checkClose requires y to be within mulTol of ref in the relative max-norm,
// over the rows for which skip (if any) reports false.
func checkClose(what string, y, ref []float64, skip func(row int) bool) error {
	if len(y) != len(ref) {
		return fmt.Errorf("%s: %d values, want %d", what, len(y), len(ref))
	}
	var diff, scale float64
	for i := range y {
		if skip != nil && skip(i) {
			continue
		}
		diff = max(diff, math.Abs(y[i]-ref[i]))
		scale = max(scale, math.Abs(ref[i]))
	}
	if !(diff <= mulTol*scale) {
		return fmt.Errorf("%s: max error %.3g against reference of norm %.3g", what, diff, scale)
	}
	return nil
}

// firstSeen holds the first response per input: the serving layer promises
// the same bits for the same x, whatever the batch width or timing.
type firstSeen struct {
	mu sync.Mutex
	y  map[int][]float64
}

// check compares y bitwise with the first response for input k, skipping
// rows for which skip reports true.
func (f *firstSeen) check(k int, y []float64, skip func(row int) bool) error {
	f.mu.Lock()
	first, ok := f.y[k]
	if !ok {
		if f.y == nil {
			f.y = make(map[int][]float64)
		}
		f.y[k] = y
	}
	f.mu.Unlock()
	if !ok {
		return nil
	}
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(first[i]) && (skip == nil || !skip(i)) {
			return fmt.Errorf("input %d row %d: %v differs bitwise from the first response %v", k, i, y[i], first[i])
		}
	}
	return nil
}

// readOnly is embedded by workloads with no background ops and no
// end-of-run check.
type readOnly struct{}

func (readOnly) begin(*tracer)   {}
func (readOnly) end() (int, int) { return 0, 0 }
func (readOnly) finish() error   { return nil }

// ---- lib-sweep ----

// libSweep is the paper's own experiment: the library alone, one goroutine.
// An op is one round over six compiled cells, because a round is unimodal
// where a latency distribution over mixed cells is not.
type libSweep struct {
	readOnly
	p             int
	cant, web, lp *spmv.Matrix
	x             [3][]float64 // cant, web, lp
	ref           [3][]float64
	x4, ref4      []float64 // cant, four interleaved right-hand sides

	cells [6]func() error // one sweep of each cell, into y
	y     [6][]float64
}

var libCells = [6]string{"cant.csr", "cant.tuned", "cant.par", "cant.fused4", "web.tuned", "lp.tuned"}

func newLibSweep(seed int64, p int) (instance, error) {
	w := &libSweep{p: p}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if w.cant, err = spmv.GenerateSuite("FEM/Cantilever", 0.5, seed); err != nil {
		return nil, err
	}
	if w.web, err = spmv.GenerateSuite("webbase", 0.25, seed); err != nil {
		return nil, err
	}
	if w.lp, err = spmv.GenerateSuite("LP", 0.1, seed); err != nil {
		return nil, err
	}
	for k, m := range []*spmv.Matrix{w.cant, w.web, w.lp} {
		_, cols := m.Dims()
		w.x[k] = randVec(rng, cols)
		refs, err := reference(m, [][]float64{w.x[k]})
		if err != nil {
			return nil, err
		}
		w.ref[k] = refs[0]
	}
	_, cols := w.cant.Dims()
	xs := [][]float64{w.x[0], randVec(rng, cols), randVec(rng, cols), randVec(rng, cols)}
	refs, err := reference(w.cant, xs)
	if err != nil {
		return nil, err
	}
	if w.x4, err = spmv.Interleave(xs); err != nil {
		return nil, err
	}
	if w.ref4, err = spmv.Interleave(refs); err != nil {
		return nil, err
	}
	return w, nil
}

// refs lists the reference product of each cell.
func (w *libSweep) refs() [6][]float64 {
	return [6][]float64{w.ref[0], w.ref[0], w.ref[0], w.ref4, w.ref[1], w.ref[2]}
}

func (w *libSweep) setup() error {
	tune := spmv.DefaultTuneOptions()
	csr, err := spmv.Compile(w.cant, spmv.NaiveOptions())
	if err != nil {
		return err
	}
	tuned, err := spmv.Compile(w.cant, tune)
	if err != nil {
		return err
	}
	par, err := spmv.CompileParallel(w.cant, tune, w.p, 1)
	if err != nil {
		return err
	}
	fused4, err := tuned.Multi(4)
	if err != nil {
		return err
	}
	webT, err := spmv.Compile(w.web, tune)
	if err != nil {
		return err
	}
	lpT, err := spmv.Compile(w.lp, tune)
	if err != nil {
		return err
	}
	for k, ref := range w.refs() {
		w.y[k] = make([]float64, len(ref))
	}
	w.cells = [6]func() error{
		func() error { return csr.MulAdd(w.y[0], w.x[0]) },
		func() error { return tuned.MulAdd(w.y[1], w.x[0]) },
		func() error { return par.MulAdd(w.y[2], w.x[0]) },
		func() error { return fused4.MulAddBlock(w.y[3], w.x4) },
		func() error { return webT.MulAdd(w.y[4], w.x[1]) },
		func() error { return lpT.MulAdd(w.y[5], w.x[2]) },
	}
	return nil
}

// teardown drops the operators, so that a repeated set-up does not compile
// beside the previous set-up's footprint.
func (w *libSweep) teardown() { w.cells, w.y = [6]func() error{}, [6][]float64{} }

func (w *libSweep) do(_, _ int, sp spanRef) (any, error) {
	for k, cell := range w.cells {
		clear(w.y[k])
		s := sp.child(libCells[k], "kernel")
		err := cell()
		s.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", libCells[k], err)
		}
	}
	return nil, nil
}

func (w *libSweep) verify(_, _ int, _ any) error {
	for k, ref := range w.refs() {
		if err := checkClose(libCells[k], w.y[k], ref, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *libSweep) stats() server.Stats { return server.Stats{} }

// ---- serve-fused and mutate-read: one in-process server, FEM/Cantilever ----

// cantServer is what serve-fused and mutate-read share: the same matrix on
// the same default server, used differently.
type cantServer struct {
	cant  *spmv.Matrix
	xs    [][]float64
	refs  [][]float64
	first firstSeen
	s     *server.Server
}

func newCantServer(seed int64, inputs int) (*cantServer, error) {
	w := &cantServer{}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if w.cant, err = spmv.GenerateSuite("FEM/Cantilever", 0.5, seed); err != nil {
		return nil, err
	}
	_, cols := w.cant.Dims()
	for k := 0; k < inputs; k++ {
		w.xs = append(w.xs, randVec(rng, cols))
	}
	w.refs, err = reference(w.cant, w.xs)
	return w, err
}

func (w *cantServer) setup() error {
	w.s = server.New(server.DefaultConfig())
	_, err := w.s.Register("m", "FEM/Cantilever", w.cant)
	return err
}

func (w *cantServer) teardown() { w.s.Close() }

func (w *cantServer) mul(k int, sp spanRef) (any, error) {
	s := sp.child("Server.MulOpts", "server")
	y, err := w.s.MulOpts("m", w.xs[k], server.MulOptions{})
	s.end()
	return y, err
}

func (w *cantServer) stats() server.Stats { return w.s.Stats() }

// serveFused keeps 16 = 2 × MaxBatch requests in flight so that every sweep
// fuses a full batch: the capacity number. (8 in flight sits between two
// batching regimes and must not be used.)
type serveFused struct {
	readOnly
	*cantServer
}

func newServeFused(seed int64, _ int) (instance, error) {
	cs, err := newCantServer(seed, 16)
	return &serveFused{cantServer: cs}, err
}

func (w *serveFused) do(c, _ int, sp spanRef) (any, error) { return w.mul(c%len(w.xs), sp) }

func (w *serveFused) verify(c, _ int, out any) error {
	k := c % len(w.xs)
	y := out.([]float64)
	if err := checkClose("mul", y, w.refs[k], nil); err != nil {
		return err
	}
	return w.first.check(k, y, nil)
}

// mutateRead sends sparse reads on an arrival schedule while one writer
// PATCHes every 20 ms. The 16 set deltas of a PATCH cycle over a fixed pool
// of 256 rows, so the overlay is steady and never trips recompaction (a 1 s
// background compile would make the run bimodal).
type mutateRead struct {
	*cantServer
	pool    []int32 // rows the writer touches; the delta sets (row, row)
	inPool  map[int]bool
	vals    []float64 // seeded values the writer cycles through
	applied []float64 // last value set per pool row; NaN before the first
	cursor  int       // PATCHes sent

	stop       chan struct{}
	done       chan struct{}
	nPatch     int
	nPatchFail int
}

const (
	patchEvery  = 20 * time.Millisecond
	patchDeltas = 16
	patchPool   = 256
)

// poolRows picks the rows the PATCH writer cycles over.
func poolRows(seed int64, rows int) []int32 {
	pool := make([]int32, patchPool)
	for k, r := range rand.New(rand.NewSource(seed + 1)).Perm(rows)[:patchPool] {
		pool[k] = int32(r)
	}
	return pool
}

func newMutateRead(seed int64, _ int) (instance, error) {
	cs, err := newCantServer(seed, 8)
	if err != nil {
		return nil, err
	}
	w := &mutateRead{cantServer: cs, inPool: make(map[int]bool)}
	rows, _ := w.cant.Dims()
	w.pool = poolRows(seed, rows)
	for _, r := range w.pool {
		w.inPool[int(r)] = true
	}
	w.vals = randVec(rand.New(rand.NewSource(seed+2)), 1021)
	w.applied = make([]float64, patchPool)
	for k := range w.applied {
		w.applied[k] = math.NaN()
	}
	return w, nil
}

func (w *mutateRead) setup() error {
	for k := range w.applied {
		w.applied[k] = math.NaN()
	}
	w.cursor = 0
	return w.cantServer.setup()
}

func (w *mutateRead) do(_, i int, sp spanRef) (any, error) { return w.mul(i%len(w.xs), sp) }

// verify checks the rows the writer never touches; finish checks the rest.
func (w *mutateRead) verify(_, i int, out any) error {
	k := i % len(w.xs)
	y := out.([]float64)
	touched := func(row int) bool { return w.inPool[row] }
	if err := checkClose("mul", y, w.refs[k], touched); err != nil {
		return err
	}
	return w.first.check(k, y, touched)
}

func (w *mutateRead) patch(tr *tracer) {
	deltas := make([]server.Delta, patchDeltas)
	for d := range deltas {
		n := w.cursor*patchDeltas + d
		k := n % patchPool
		w.applied[k] = w.vals[n%len(w.vals)]
		deltas[d] = server.Delta{Op: "set", Row: w.pool[k], Col: w.pool[k], Val: w.applied[k]}
	}
	w.cursor++
	s := tr.start(int64(-w.cursor), "Server.Patch", "matrix/delta")
	_, err := w.s.Patch("m", deltas)
	s.end()
	w.nPatch++
	if err != nil {
		w.nPatchFail++
	}
}

func (w *mutateRead) begin(tr *tracer) {
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	w.nPatch, w.nPatchFail = 0, 0
	go func() {
		defer close(w.done)
		tick := time.NewTicker(patchEvery)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.patch(tr)
			}
		}
	}()
}

func (w *mutateRead) end() (int, int) {
	close(w.stop)
	<-w.done
	return w.nPatch, w.nPatchFail
}

// finish registers the mutated matrix from scratch on a fresh server and
// requires the patched server's products to equal its products bitwise.
func (w *mutateRead) finish() error {
	rows, cols := w.cant.Dims()
	rebuilt := spmv.NewMatrix(rows, cols)
	set := make(map[int]float64)
	for k, v := range w.applied {
		if !math.IsNaN(v) {
			set[int(w.pool[k])] = v
		}
	}
	var err error
	w.cant.Entries(func(i, j int, v float64) {
		if _, ok := set[i]; ok && i == j {
			return
		}
		err = errors.Join(err, rebuilt.Set(i, j, v))
	})
	for r, v := range set {
		err = errors.Join(err, rebuilt.Set(r, r, v))
	}
	if err != nil {
		return err
	}
	fresh := server.New(server.DefaultConfig())
	defer fresh.Close()
	if _, err := fresh.Register("m", "rebuilt", rebuilt); err != nil {
		return err
	}
	for k, x := range w.xs {
		want, err := fresh.MulOpts("m", x, server.MulOptions{})
		if err != nil {
			return err
		}
		got, err := w.s.MulOpts("m", x, server.MulOptions{})
		if err != nil {
			return err
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("input %d row %d: patched server gives %v, from-scratch registration %v", k, i, got[i], want[i])
			}
		}
	}
	return nil
}

// ---- http-wide ----

// httpWide is the loopback HTTP path with a wide x (110 000 floats) and a
// short y (428): the JSON codec is most of the request and the sweep small.
type httpWide struct {
	readOnly
	seed  int64
	p     int
	xs    [][]float64
	refs  [][]float64
	first firstSeen

	s    *server.Server
	srv  *http.Server
	tr   *http.Transport
	hc   *server.HTTPClient
	wire *wireCounter // nil unless a probe counts bytes
}

const (
	lpSuite = "LP"
	lpScale = 0.1
)

func newHTTPWide(seed int64, p int) (instance, error) {
	w := &httpWide{seed: seed, p: p}
	rng := rand.New(rand.NewSource(seed))
	// The server generates the same twin from (suite, scale, seed) when the
	// client registers it; this copy only makes the reference.
	lp, err := spmv.GenerateSuite(lpSuite, lpScale, seed)
	if err != nil {
		return nil, err
	}
	_, cols := lp.Dims()
	for k := 0; k < p; k++ {
		w.xs = append(w.xs, randVec(rng, cols))
	}
	w.refs, err = reference(lp, w.xs)
	return w, err
}

func (w *httpWide) setup() error {
	w.s = server.New(server.DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.s.Handler()}
	go func() { _ = w.srv.Serve(ln) }() // returns ErrServerClosed at teardown
	w.tr = &http.Transport{MaxConnsPerHost: w.p, MaxIdleConnsPerHost: w.p}
	var rt http.RoundTripper = w.tr
	if w.wire != nil {
		w.wire.next = w.tr
		rt = w.wire
	}
	w.hc = server.NewHTTPClient("http://"+ln.Addr().String(), &http.Client{Transport: rt})
	_, err = w.hc.RegisterSuite("m", lpSuite, lpScale, w.seed)
	return err
}

func (w *httpWide) teardown() {
	w.tr.CloseIdleConnections()
	_ = w.srv.Close()
	w.s.Close()
}

func (w *httpWide) do(c, _ int, sp spanRef) (any, error) {
	s := sp.child("HTTPClient.MulOpts", "server.http")
	y, err := w.hc.MulOpts("m", w.xs[c%len(w.xs)], server.MulOptions{})
	s.end()
	return y, err
}

func (w *httpWide) verify(c, _ int, out any) error {
	k := c % len(w.xs)
	y := out.([]float64)
	if err := checkClose("mul", y, w.refs[k], nil); err != nil {
		return err
	}
	return w.first.check(k, y, nil)
}

func (w *httpWide) stats() server.Stats { return w.s.Stats() }

// ---- shard-cg ----

// shardCG solves a 2-D Poisson system by CG through a front server and a
// cluster of two in-process members. The sweep is ~60 µs, so the fan-out
// per iteration dominates, and a kernel change predicts no move here.
type shardCG struct {
	readOnly
	a      *spmv.Matrix
	naive  *spmv.Operator
	bs     [][]float64
	mu     sync.Mutex
	iters  map[int]int // first solve's iteration count per b
	front  *server.Server
	member []*server.Server
	local  []*server.LocalTransport
	cl     *server.Cluster
}

const (
	poissonSide = 150
	shardK      = 2
)

// poisson assembles the 5-point stencil on a side × side grid: SPD.
func poisson(side int) (*spmv.Matrix, error) {
	m := spmv.NewMatrix(side*side, side*side)
	var err error
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			err = errors.Join(err, m.Set(i, i, 4))
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				if rr, cc := r+d[0], c+d[1]; rr >= 0 && rr < side && cc >= 0 && cc < side {
					err = errors.Join(err, m.Set(i, rr*side+cc, -1))
				}
			}
		}
	}
	return m, err
}

func newShardCG(seed int64, _ int) (instance, error) {
	w := &shardCG{iters: make(map[int]int)}
	var err error
	if w.a, err = poisson(poissonSide); err != nil {
		return nil, err
	}
	if w.naive, err = spmv.Compile(w.a, spmv.NaiveOptions()); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < 2; k++ {
		w.bs = append(w.bs, randVec(rng, poissonSide*poissonSide))
	}
	return w, nil
}

// setup gives each of the K members one thread and one worker, so that K
// members use P cores between them.
func (w *shardCG) setup() error {
	w.member, w.local = nil, nil
	var ts []server.Transport
	for k := 0; k < shardK; k++ {
		cfg := server.DefaultConfig()
		cfg.Threads, cfg.Workers = 1, 1
		s := server.New(cfg)
		lt := server.NewLocalTransport(fmt.Sprintf("member%d", k), s)
		w.member, w.local, ts = append(w.member, s), append(w.local, lt), append(ts, lt)
	}
	var err error
	if w.cl, err = server.NewCluster(ts, server.ClusterConfig{}); err != nil {
		return err
	}
	w.front = server.New(server.DefaultConfig())
	w.front.AttachCluster(w.cl)
	_, err = w.cl.RegisterSharded("p", "poisson2d", w.a, shardK)
	return err
}

func (w *shardCG) teardown() {
	w.front.Close()
	for _, s := range w.member {
		s.Close()
	}
}

// solveCG runs one CG session on s to the end and returns its final status.
func solveCG(s *server.Server, id string, b []float64, sp spanRef) (server.SolveStatus, error) {
	c := sp.child("Server.SolveOpts", "solve")
	st, err := s.SolveOpts(id, server.SolveRequest{Method: "cg", B: b, Tol: solveTol, MaxIters: 4000}, server.SolveOptions{})
	c.end()
	for err == nil && st.State == "running" {
		c = sp.child("Server.SolveStatus", "solve")
		st, err = s.SolveStatus(st.SID, 30*time.Second)
		c.end()
	}
	if err == nil && st.State != "converged" {
		err = fmt.Errorf("solve ended %s after %d iterations: %s", st.State, st.Iters, st.Error)
	}
	return st, err
}

func (w *shardCG) do(_, i int, sp spanRef) (any, error) {
	return solveCG(w.front, "p", w.bs[i%len(w.bs)], sp)
}

// trueResidual recomputes ‖b − Ax‖/‖b‖ with the plain CSR operator.
func trueResidual(a *spmv.Operator, b, x []float64) (float64, error) {
	ax, err := a.Mul(x)
	if err != nil {
		return 0, err
	}
	var rr, bb float64
	for i := range b {
		rr += (b[i] - ax[i]) * (b[i] - ax[i])
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb), nil
}

func (w *shardCG) verify(_, i int, out any) error {
	st := out.(server.SolveStatus)
	k := i % len(w.bs)
	res, err := trueResidual(w.naive, w.bs[k], st.X)
	if err != nil {
		return err
	}
	// CG stops on its recurrence residual; the recomputed one may sit a
	// rounding error above the tolerance.
	if !(res <= solveTol*1.01) {
		return fmt.Errorf("true residual %.3g above %.3g", res, solveTol)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.iters[k]; !ok {
		w.iters[k] = st.Iters
	} else if st.Iters != first {
		return fmt.Errorf("b %d converged in %d iterations, the first solve took %d", k, st.Iters, first)
	}
	return nil
}

func (w *shardCG) stats() server.Stats {
	var sum server.Stats
	for _, s := range append([]*server.Server{w.front}, w.member...) {
		st := s.Stats()
		sum.Requests += st.Requests
		sum.Sweeps += st.Sweeps
		sum.SavedBytes += st.SavedBytes
	}
	return sum
}

// ---- wire counting ----

// wireCounter counts request and response body bytes of every round trip.
type wireCounter struct {
	next  http.RoundTripper
	mu    sync.Mutex
	bytes int64
}

func (w *wireCounter) add(n int64) {
	w.mu.Lock()
	w.bytes += n
	w.mu.Unlock()
}

func (w *wireCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	w.add(r.ContentLength)
	resp, err := w.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, w: w}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	w *wireCounter
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.add(int64(n))
	return n, err
}
