package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/kernel"
	"repro/internal/matrix/delta"
	"repro/internal/sched"
	"repro/internal/server"
)

// The layer probes time each layer from outside, by sending the same input
// through successively deeper entry points and subtracting:
//
//	HTTPClient.MulOpts ⊃ Server.MulOpts ⊃ MultiOperator.MulAddRows
//	Cluster.MulOpts ⊃ LocalTransport.Mul(BandInfo.SubID)
//
// They run after the traced phase of every workload and do not depend on
// which workload that was. Every bandwidth figure is cache-inclusive and
// over computed bytes: the matrix streams are 12-34 MB beside an 8 MiB L2
// sum and a 260 MiB L3 the hypervisor shares, and 4× the last-level cache
// cannot be streamed within the time cap.

const probeMinReps = 5

// runProbes returns the probe metrics; per is the time spent on one timing.
func runProbes(seed int64, p int, per time.Duration) (map[string]float64, error) {
	m := map[string]float64{"host.nproc": float64(runtime.NumCPU())}
	for _, probe := range []func(map[string]float64, int64, int, time.Duration) error{
		probeLibrary, probeServer, probeSched, probeHTTP, probeShard,
	} {
		if err := probe(m, seed, p, per); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return m, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// gflops is the rate of k products with a matrix of nnz nonzeros in d.
func gflops(nnz int64, k int, d time.Duration) float64 {
	return 2 * float64(nnz) * float64(k) / float64(d.Nanoseconds())
}

// probeLibrary covers host, kernel, tune and traffic: the library alone.
func probeLibrary(m map[string]float64, seed int64, p int, per time.Duration) error {
	rng := rand.New(rand.NewSource(seed))
	compile := func(suite string, scale float64) (*spmv.Matrix, *spmv.Operator, float64, error) {
		mat, err := spmv.GenerateSuite(suite, scale, seed)
		if err != nil {
			return nil, nil, 0, err
		}
		t := time.Now()
		op, err := spmv.Compile(mat, spmv.DefaultTuneOptions())
		return mat, op, time.Since(t).Seconds(), err
	}
	sweep := func(op *spmv.Operator) time.Duration {
		rows, cols := op.Dims()
		x, y := randVec(rng, cols), make([]float64, rows)
		return medianCall(per, probeMinReps, func() { _ = op.MulAdd(y, x) }) // dimensions are the operator's own
	}
	fused := func(op *spmv.Operator, k int) (time.Duration, error) {
		mo, err := op.Multi(k)
		if err != nil {
			return 0, err
		}
		rows, cols := op.Dims()
		x, y := randVec(rng, cols*k), make([]float64, rows*k)
		return medianCall(per, probeMinReps, func() { _ = mo.MulAddBlock(y, x) }), nil
	}

	cant, tuned, compileS, err := compile("FEM/Cantilever", 0.5)
	if err != nil {
		return err
	}
	m["tune.cant_compile_s"] = compileS
	m["tune.cant_footprint_savings"] = tuned.Savings()
	csr, err := spmv.Compile(cant, spmv.NaiveOptions())
	if err != nil {
		return err
	}
	par, err := spmv.CompileParallel(cant, spmv.DefaultTuneOptions(), p, 1)
	if err != nil {
		return err
	}
	nnz := cant.NNZ()
	tTuned, tPar := sweep(tuned), sweep(par)
	m["kernel.cant_csr_gflops"] = gflops(nnz, 1, sweep(csr))
	m["kernel.cant_tuned_gflops"] = gflops(nnz, 1, tTuned)
	m["kernel.cant_par_gflops"] = gflops(nnz, 1, tPar)
	m["kernel.cant_par_speedup"] = float64(tTuned) / float64(tPar)
	for _, k := range []int{4, 8} {
		t, err := fused(tuned, k)
		if err != nil {
			return err
		}
		m[fmt.Sprintf("kernel.cant_fused%d_gflops", k)] = gflops(nnz, k, t)
	}

	// STREAM triad over three arrays that together match the tuned
	// operator's footprint, so both figures see the same cache levels.
	n := int(tuned.FootprintBytes() / 8 / 3)
	a, b, c := make([]float64, n), randVec(rng, n), randVec(rng, n)
	tTriad := medianCall(per, probeMinReps, func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	triad := float64(3*8*n) / float64(tTriad.Nanoseconds())
	tr, err := tuned.Traffic(spmv.TrafficOptions{})
	if err != nil {
		return err
	}
	gbs := float64(tr.TotalBytes()) / float64(tTuned.Nanoseconds())
	m["host.triad_gbs"] = triad
	m["traffic.cant_sweep_bytes"] = float64(tr.TotalBytes())
	m["kernel.cant_tuned_gbs"] = gbs
	m["kernel.roofline_share"] = gbs / triad
	m["traffic.measured_over_modeled"] = triad / gbs // measured sweep time ÷ modeled bytes at triad speed

	// kernel.OverlayRows over the writer's pool, each row in canonical form.
	rowsN, cols := cant.Dims()
	pool := poolRows(seed, rowsN)
	byRow := make(map[int32]map[int32]float64, len(pool))
	for _, r := range pool {
		byRow[r] = make(map[int32]float64)
	}
	cant.Entries(func(i, j int, v float64) {
		if row, ok := byRow[int32(i)]; ok {
			row[int32(j)] += v
		}
	})
	overlay := make([]delta.Row, 0, len(pool))
	for _, r := range pool {
		row := delta.Row{Index: r}
		for j := range byRow[r] {
			row.Col = append(row.Col, j)
		}
		sort.Slice(row.Col, func(a, b int) bool { return row.Col[a] < row.Col[b] })
		for _, j := range row.Col {
			row.Val = append(row.Val, byRow[r][j])
		}
		overlay = append(overlay, row)
	}
	x, y := randVec(rng, cols), make([]float64, rowsN)
	m["kernel.overlay_rows_us"] = micros(medianCall(per, probeMinReps, func() { _ = kernel.OverlayRows(y, x, 1, overlay) }))

	for _, s := range []struct {
		key, suite string
		scale      float64
	}{{"web", "webbase", 0.25}, {"lp", lpSuite, lpScale}} {
		mat, op, compileS, err := compile(s.suite, s.scale)
		if err != nil {
			return err
		}
		m["tune."+s.key+"_compile_s"] = compileS
		m["kernel."+s.key+"_tuned_gflops"] = gflops(mat.NNZ(), 1, sweep(op))
	}

	grid, err := poisson(poissonSide)
	if err != nil {
		return err
	}
	sym, err := spmv.CompileSymmetric(grid)
	if err != nil {
		return err
	}
	m["kernel.poisson_sym_gflops"] = gflops(grid.NNZ(), 1, sweep(sym))
	return nil
}

// probeServer covers the in-process serving layer at one request in flight,
// the observability layer's cost, and the delta overlay.
func probeServer(m map[string]float64, seed int64, p int, per time.Duration) error {
	cant, err := spmv.GenerateSuite("FEM/Cantilever", 0.5, seed)
	if err != nil {
		return err
	}
	rows, cols := cant.Dims()
	x := randVec(rand.New(rand.NewSource(seed)), cols)
	start := func(obsSample int) (*server.Server, error) {
		cfg := server.DefaultConfig()
		cfg.ObsSample = obsSample
		s := server.New(cfg)
		_, err := s.Register("m", "FEM/Cantilever", cant)
		return s, err
	}
	mulP50 := func(s *server.Server) time.Duration {
		return medianCall(per, probeMinReps, func() { _, err = s.MulOpts("m", x, server.MulOptions{}) })
	}
	on, err := start(server.DefaultObsSample)
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := start(0)
	if err != nil {
		return err
	}
	defer off.Close()
	// Alternate the two servers so that drift hits both alike.
	var tOn, tOff time.Duration
	for k := 0; k < 2; k++ {
		tOn += mulP50(on) / 2
		tOff += mulP50(off) / 2
	}
	if err != nil {
		return err
	}
	m["server.mul_c1_p50_us"] = micros(tOn)
	m["obs.overhead_share"] = float64(tOn)/float64(tOff) - 1

	// The sweep a lone request is served by: the width-1 CSR view of the
	// P-thread operator, its row ranges run side by side.
	op, err := spmv.CompileParallel(cant, spmv.DefaultTuneOptions(), p, 1)
	if err != nil {
		return err
	}
	mo, err := op.Multi(1)
	if err != nil {
		return err
	}
	parts, err := op.RowPartition(p)
	if err != nil {
		return err
	}
	y := make([]float64, rows)
	tSweep := medianCall(per, probeMinReps, func() {
		var wg sync.WaitGroup
		for _, rg := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = mo.MulAddRows(y, x, rg.Lo, rg.Hi) // ranges come from the operator
			}()
		}
		wg.Wait()
	})
	m["server.inproc_overhead_us"] = micros(tOn - tSweep)

	// Dirty the whole pool as the mutate-read writer does, then compare.
	pool := poolRows(seed, rows)
	var patchUS []float64
	var last server.PatchResult
	for n := 0; n < 4*patchPool; n += patchDeltas {
		deltas := make([]server.Delta, patchDeltas)
		for d := range deltas {
			r := pool[(n+d)%patchPool]
			deltas[d] = server.Delta{Op: "set", Row: r, Col: r, Val: float64(n + d + 1)}
		}
		t := time.Now()
		if last, err = on.Patch("m", deltas); err != nil {
			return err
		}
		patchUS = append(patchUS, micros(time.Since(t)))
	}
	tDirty := mulP50(on)
	if err != nil {
		return err
	}
	m["delta.patch_p50_us"] = median(patchUS)
	m["delta.dirty_rows"] = float64(last.DirtyRows)
	m["delta.overlay_overhead_share"] = float64(tDirty)/float64(tOn) - 1
	t := time.Now()
	if err := on.Recompact("m"); err != nil {
		return err
	}
	m["delta.recompact_ms"] = millis(time.Since(t))
	return nil
}

// probeSched times the admission primitives uncontended.
func probeSched(m map[string]float64, _ int64, p int, per time.Duration) error {
	const batch = 1000
	gate := sched.NewGate(p, 0)
	m["sched.gate_cycle_ns"] = float64(medianCall(per, probeMinReps, func() {
		for k := 0; k < batch; k++ {
			gate.Acquire(sched.Standard, 1<<20, nil)
			gate.Release()
		}
	})) / batch
	bucket := sched.NewBucket(1e18, 1<<62)
	m["sched.bucket_take_ns"] = float64(medianCall(per, probeMinReps, func() {
		for k := 0; k < batch; k++ {
			bucket.Take(1)
		}
	})) / batch
	return nil
}

// probeHTTP covers the loopback HTTP path at one request in flight.
func probeHTTP(m map[string]float64, seed int64, p int, per time.Duration) error {
	inst, err := newHTTPWide(seed, p)
	if err != nil {
		return err
	}
	w := inst.(*httpWide)
	w.wire = &wireCounter{}
	t := time.Now()
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	m["http.register_s"] = time.Since(t).Seconds()

	w.wire.bytes = 0
	calls := 0
	tHTTP := medianCall(2*per, probeMinReps, func() {
		_, err = w.do(0, 0, spanRef{})
		calls++
	})
	wire := w.wire.bytes
	tLocal := medianCall(per, probeMinReps, func() {
		if err == nil {
			_, err = w.s.MulOpts("m", w.xs[0], server.MulOptions{})
		}
	})
	if err != nil {
		return err
	}
	m["http.mul_c1_p50_ms"] = millis(tHTTP)
	m["http.codec_overhead_ms"] = millis(tHTTP - tLocal)
	m["http.wire_kb_per_op"] = float64(wire) / 1024 / float64(calls)
	return nil
}

// probeShard covers the solver and the shard fan-out on the CG system.
func probeShard(m map[string]float64, seed int64, p int, per time.Duration) error {
	inst, err := newShardCG(seed, p)
	if err != nil {
		return err
	}
	w := inst.(*shardCG)
	t := time.Now()
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	m["shard.register_s"] = time.Since(t).Seconds()

	info, err := w.cl.Info("p")
	if err != nil {
		return err
	}
	x := w.bs[0]
	tCluster := medianCall(per, probeMinReps, func() { _, err = w.cl.MulOpts("p", x, server.ClusterMulOptions{}) })
	if err != nil {
		return err
	}
	var slowest time.Duration
	var maxNNZ, sumNNZ int64
	for _, band := range info.Bands {
		maxNNZ, sumNNZ = max(maxNNZ, band.NNZ), sumNNZ+band.NNZ
		for _, lt := range w.local {
			if lt.Name() != band.Members[0] {
				continue
			}
			tBand := medianCall(per/2, probeMinReps, func() { _, err = lt.Mul(band.SubID, x) })
			if err != nil {
				return err
			}
			slowest = max(slowest, tBand)
		}
	}
	m["shard.mul_c1_p50_us"] = micros(tCluster)
	m["shard.fanout_overhead_us"] = micros(tCluster - slowest)
	m["shard.band_imbalance"] = float64(maxNNZ) * float64(len(info.Bands)) / float64(sumNNZ)

	// Time-to-solution per iteration, sharded and on one unsharded server;
	// the first solve of each warms its path.
	local := server.New(server.DefaultConfig())
	defer local.Close()
	if _, err := local.Register("p", "poisson2d", w.a); err != nil {
		return err
	}
	for _, s := range []struct {
		key string
		srv *server.Server
	}{{"shard.iter_us", w.front}, {"solve.local_iter_us", local}} {
		if _, err := solveCG(s.srv, "p", x, spanRef{}); err != nil {
			return err
		}
		t := time.Now()
		st, err := solveCG(s.srv, "p", x, spanRef{})
		if err != nil {
			return err
		}
		m[s.key] = micros(time.Since(t)) / float64(st.Iters)
		m["solve.cg_iters"] = float64(st.Iters)
		m["solve.final_residual"] = st.Residual
	}
	return nil
}
