// Command e2ebench is this repository's benchmark: five workloads, each
// measured end to end in a process of its own, and a traced run that gives
// the per-layer numbers. README.md explains the workloads and the metrics;
// ../BENCHMARK.json declares them.
//
//	bash e2ebench/run.sh --workload serve-fused --seed 7 --seconds 15 --trace 0
//	bash e2ebench/run.sh            # every workload, untraced then traced
//	bash e2ebench/run.sh -aa        # two sets of runs of the same binary, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 7, "seed of every generated input: matrices, vectors, arrival schedule, PATCH row pool")
	seconds := flag.Int("seconds", 15, "length of the measure phase")
	trace := flag.Int("trace", 0, "1 = traced run, reporting the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice per seed on this binary and compare the two sets")
	seeds := flag.String("seeds", "7,11", "with -aa: the seeds of each set")
	out := flag.String("out", "e2ebench/out", "directory for traces and result files")
	flag.Parse()

	var err error
	switch {
	case *aa:
		err = runAA(*seeds, *seconds, *out)
	case *name == "":
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// threads is P: the cores the workload may use, and the most connections.
func threads() int { return min(runtime.NumCPU(), 4) }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			if w.clients == 0 {
				w.clients = threads()
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runner drives one instance and keeps the verification tally.
type runner struct {
	w    workload
	inst instance
	seed int64

	req             atomic.Int64
	checked, passed atomic.Int64
	mu              sync.Mutex
	firstErr        error
}

func (r *runner) note(err error) {
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// op returns the timed op of a phase. What it returns as after runs once
// the op's end is stamped: the output check of 1 op in verifyEvery.
func (r *runner) op(tr *tracer) func(c, i int) (failed bool, after func()) {
	return func(c, i int) (bool, func()) {
		root := tr.start(r.req.Add(1), "op", "client")
		out, err := r.inst.do(c, i, root)
		root.end()
		if err != nil {
			r.note(err)
			return true, nil
		}
		if i%verifyEvery != 0 {
			return false, nil
		}
		return false, func() {
			r.checked.Add(1)
			if err := r.inst.verify(c, i, out); err != nil {
				r.note(err)
				return
			}
			r.passed.Add(1)
		}
	}
}

// paceJitter is how far a gap of the open loop's schedule may differ from
// the mean gap, as a share of it.
const paceJitter = 0.2

// arrivals is the open loop's schedule: rate ops per second, each gap drawn
// uniformly within paceJitter of the mean gap. The gaps are not exponential.
// A lone read holds both cores for about 2 ms, so 300 Poisson arrivals per
// second keep that single server 60 % busy, where the wait in the queue
// grows two to three times as fast as the sweep slows down: a neighbour
// that slowed the host by a third moved the median latency by 55-150 %, and
// ten runs of the same code spread by 20-29 %. Paced arrivals queue only
// behind a stall, so latency follows the host one to one (+32-38 % under
// the same neighbours), as it does in the closed loops.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += (1 + paceJitter*(2*rng.Float64()-1)) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// bg counts a phase's background ops.
type bg struct{ attempted, failed int }

// phase runs the workload's loop for dur. n numbers the phases of a run, so
// that each open-loop phase gets its own schedule from the seed.
func (r *runner) phase(n int, dur time.Duration, tr *tracer) ([]sample, bg) {
	op := r.op(tr)
	if r.w.clients > 1 {
		var later deferredChecks
		defer later.run()
		timed := op
		op = func(c, i int) (bool, func()) {
			failed, check := timed(c, i)
			if check != nil {
				later.offer(check)
			}
			return failed, nil
		}
	}
	r.inst.begin(tr)
	var samples []sample
	if r.w.open {
		due := arrivals(rand.New(rand.NewSource(r.seed*1000+int64(n))), r.w.rate, dur)
		samples = runOpen(wallClock{time.Now()}, due, r.w.clients, func(i int) (bool, func()) { return op(0, i) })
	} else {
		samples = runClosed(r.w.clients, dur, op)
	}
	a, f := r.inst.end()
	return samples, bg{a, f}
}

// deferredChecks holds output checks until their phase is over. With
// several ops in flight a check may not run during the phase, not even on a
// goroutine of its own: whatever takes a core for 300 µs keeps the clients
// of a finished batch from re-queueing together, and checking 1 op in 8
// that way cut serve-fused's mean batch width from 7.7 to 4.4 and its
// throughput by a third. Each check pins its output (248 KB on
// FEM/Cantilever), so at most maxDeferred are kept: when the list is full
// every second one is dropped and from then on every second offer refused,
// which leaves the kept checks evenly spread over the phase.
type deferredChecks struct {
	mu      sync.Mutex
	kept    []func()
	offered int
	stride  int
}

const maxDeferred = 128

func (d *deferredChecks) offer(check func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stride == 0 {
		d.stride = 1
	}
	n := d.offered
	d.offered++
	if n%d.stride != 0 {
		return
	}
	if len(d.kept) == maxDeferred {
		for k := 0; k < maxDeferred/2; k++ {
			d.kept[k] = d.kept[2*k]
		}
		clear(d.kept[maxDeferred/2:])
		d.kept = d.kept[:maxDeferred/2]
		d.stride *= 2
		if n%d.stride != 0 {
			return
		}
	}
	d.kept = append(d.kept, check)
}

func (d *deferredChecks) run() {
	for _, check := range d.kept {
		check()
	}
}

func runOne(name string, seed int64, seconds int, traced bool, outDir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	p := threads()
	runtime.GOMAXPROCS(p)
	dur := time.Duration(seconds) * time.Second

	inst, err := w.build(seed, p)
	if err != nil {
		return fmt.Errorf("%s inputs: %w", name, err)
	}
	r := &runner{w: w, inst: inst, seed: seed}
	setupS, err := r.setUp(!traced)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	r.phase(0, warmup, nil) // discarded

	res := result{Metrics: make(map[string]value)}
	declared, measured := endToEnd, map[string]float64(nil)
	if !traced {
		samples, b := r.phase(1, dur, nil)
		ph := summarize(samples, dur, w.limit)
		res.Attempted, res.Failed = ph.attempted+b.attempted, ph.failed+b.failed
		measured = map[string]float64{
			"setup_s":      setupS,
			"ops_per_s":    ph.opsPerS,
			"lat_p50_ms":   ph.p50ms,
			"ontime_share": float64(ph.ontime) / float64(max(ph.attempted, 1)),
		}
		fmt.Printf("%s seed %d P %d %s: %d ops in %d s, window spread %.3f, windows %.1f ops/s, p50 %.2f ms\n",
			name, seed, p, runtime.Version(), ph.attempted, seconds, ph.winSpread(), ph.winOpsPerS, ph.winP50ms)
		// Read before finish: mutate-read's end-of-run check registers the
		// mutated matrix again on a second server, and that, not the system
		// under load, was the peak (376 or 410 MB as the collector fell,
		// against a steady 264 MB here).
		if measured["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return err
		}
	} else {
		declared = perLayer
		if measured, res.Attempted, res.Failed, err = r.tracedRun(dur, outDir); err != nil {
			return err
		}
	}
	if err := inst.finish(); err != nil {
		r.note(err)
	}
	inst.teardown()
	if traced {
		probes, err := runProbes(seed, p, dur/60)
		if err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		for k, v := range probes {
			measured[k] = v
		}
	}
	res.Correct = r.firstErr == nil && r.checked.Load() > 0 && r.checked.Load() == r.passed.Load()
	if r.firstErr != nil {
		fmt.Println("first error:", r.firstErr)
	}
	fmt.Printf("verified %d of %d checked outputs, %d of %d ops failed\n",
		r.passed.Load(), r.checked.Load(), res.Failed, res.Attempted)
	for _, d := range declared {
		v, ok := measured[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", name, d.name, v)
		}
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-14s %-30s %14.6g %s\n", name, d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp times the instance's set-up. With repeat it sets up again on fresh
// objects until moreSetups is satisfied and returns the median; the last
// set-up's objects are the ones the run then measures.
func (r *runner) setUp(repeat bool) (float64, error) {
	var times []float64
	var total time.Duration
	for {
		runtime.GC() // the previous repeat's garbage is not this repeat's cost
		t := time.Now()
		err := r.inst.setup()
		d := time.Since(t)
		if err != nil {
			return 0, err
		}
		times, total = append(times, d.Seconds()), total+d
		if !repeat || !moreSetups(len(times), total) {
			return median(times), nil
		}
		r.inst.teardown()
	}
}

// tracedRun measures the workload without and then with spans, and returns
// the per-layer metrics that are taken while the workload runs.
func (r *runner) tracedRun(dur time.Duration, outDir string) (map[string]float64, int, int, error) {
	half := dur * 2 / 5

	peak := watchGoroutines()
	before := r.inst.stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, 0, 0, err
	}
	samples, b := r.phase(1, half, nil)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.ReadMemStats(&ms1)
	after := r.inst.stats()
	goroutines := peak()
	plain := summarize(samples, half, r.w.limit)

	tr := newTracer()
	samples, tb := r.phase(2, half, tr)
	traced := summarize(samples, half, r.w.limit)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	doc := map[string]any{"workload": r.w.name, "seed": r.seed, "spans": tr.spans}
	if err := writeJSON(filepath.Join(outDir, "trace-"+r.w.name+".json"), doc); err != nil {
		return nil, 0, 0, err
	}

	ops := float64(max(plain.attempted, 1))
	sweeps := float64(after.Sweeps - before.Sweeps)
	m := map[string]float64{
		"client.lat_p90_ms":       percentile(plain.latMS, 0.9),
		"client.lat_max_ms":       percentile(plain.latMS, 1),
		"client.samples":          float64(len(plain.latMS)),
		"client.gen_lag_p99_ms":   percentile(plain.genLagMS, 0.99),
		"client.seg_spread":       plain.winSpread(),
		"client.self_us":          medianSelfUS(tr.spans, "op"),
		"runtime.cpu_ms_per_op":   millis(cpu1-cpu0) / ops,
		"runtime.alloc_kb_per_op": float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops,
		"runtime.gc_pause_ms":     float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"runtime.goroutines_peak": float64(goroutines),
		"batcher.mean_width":      0,
		"batcher.sweeps_per_op":   sweeps / ops,
		"batcher.saved_mb_per_op": float64(after.SavedBytes-before.SavedBytes) / 1e6 / ops,
		"trace.overhead_share":    1 - traced.opsPerS/plain.opsPerS,
	}
	if sweeps > 0 {
		m["batcher.mean_width"] = float64(after.Requests-before.Requests) / sweeps
	}
	return m, plain.attempted + traced.attempted + b.attempted + tb.attempted,
		plain.failed + traced.failed + b.failed + tb.failed, nil
}

// watchGoroutines samples the goroutine count every 10 ms until the
// returned function is called, which returns the highest count seen.
func watchGoroutines() (stop func() int) {
	quit, done := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, runtime.NumGoroutine())
			select {
			case <-quit:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() int { close(quit); return <-done }
}
