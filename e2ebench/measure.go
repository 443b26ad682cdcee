package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The noise rules. A phase is cut into windows of one second. The host (a
// shared 2-vCPU microVM) slows windows down, by up to a third and for
// seconds to minutes at a time, and a median over windows follows it: ten
// runs of the same code then spread by 20-35 %. So throughput is reported
// as the upper quartile of the windows and latency as the lower quartile of
// the windows' medians: what the system does while the host leaves it
// alone. A slower system is slower in every window. Not a decile: while the
// neighbours are silent a few windows of a run come out fast (lib-sweep's
// 77 MB then stay in the shared L3 and a round takes 12 ms, not 22), and a
// decile of 15 windows reports those two or three.
const (
	window       = time.Second
	quiet        = 0.75 // the quantile of windows taken as undisturbed
	warmup       = 2 * time.Second
	verifyEvery  = 8 // 1 op in 8 has its output checked, outside the timed interval
	setupMinReps = 3
	setupMinTime = 2 * time.Second
)

// sample is one op, as offsets from the start of its phase. due is when the
// op should have started: the arrival time in an open loop, start in a
// closed loop. Latency runs from due, so a stall is charged to every op it
// delays and not only to the op that stalled.
type sample struct {
	due, start, end time.Duration
	failed          bool
}

func (s sample) latency() time.Duration { return s.end - s.due }

// clock is the time source of the open loop; tests substitute a fake.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }
func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// runClosed drives clients goroutines, each sending its next op when the
// previous one has returned, until dur has passed. Ops in flight at dur run
// to completion. do(c, i) is op i of client c and is what gets timed; the
// after it may return runs once the op's end is stamped.
func runClosed(clients int, dur time.Duration, do func(c, i int) (failed bool, after func())) []sample {
	perClient := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				start := time.Since(t0)
				if start >= dur {
					return
				}
				failed, after := do(c, i)
				perClient[c] = append(perClient[c], sample{due: start, start: start, end: time.Since(t0), failed: failed})
				if after != nil {
					after()
				}
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// runOpen issues one op per entry of due, at that offset on clk, from a
// fixed set of workers: an op whose worker is still busy starts late, and
// its latency counts the wait because it runs from due.
func runOpen(clk clock, due []time.Duration, workers int, do func(i int) (failed bool, after func())) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				clk.sleepUntil(due[i])
				start := clk.now()
				failed, after := do(i)
				out[i] = sample{due: due[i], start: start, end: clk.now(), failed: failed}
				if after != nil {
					after()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two nearest ranks; NaN-free: 0 for no data.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phase is what one measured phase yields.
type phase struct {
	attempted, failed int
	ontime            int       // ops that succeeded within the latency limit
	opsPerS           float64   // upper quartile over windows
	p50ms             float64   // lower quartile over windows of the window's median latency
	winOpsPerS        []float64 // per window
	winP50ms          []float64 // per window that an op ended in, in time order
	latMS             []float64 // every successful op's latency, sorted
	genLagMS          []float64 // start − due of every op, sorted
}

// summarize cuts a phase of length dur into windows. An op counts towards
// the throughput of every window it overlaps, in proportion to the overlap:
// whole-op counting would quantize a window that holds two 500 ms solves to
// ±50 %. Its latency belongs to the window it ended in.
func summarize(samples []sample, dur, limit time.Duration) phase {
	n := max(int(dur/window), 1)
	winLen := dur / time.Duration(n)
	p := phase{attempted: len(samples), winOpsPerS: make([]float64, n)}
	winLat := make([][]float64, n)
	for _, s := range samples {
		p.genLagMS = append(p.genLagMS, millis(s.start-s.due))
		if s.failed {
			p.failed++
			continue
		}
		lat := s.latency()
		if lat <= limit {
			p.ontime++
		}
		p.latMS = append(p.latMS, millis(lat))
		last := min(int(s.end/winLen), n-1)
		winLat[last] = append(winLat[last], millis(lat))
		busy := max(s.end-s.start, 1) // a fake clock can make an op instantaneous
		for k := 0; k < n; k++ {
			lo := max(s.start, time.Duration(k)*winLen)
			hi := min(s.start+busy, time.Duration(k+1)*winLen)
			if hi > lo {
				p.winOpsPerS[k] += float64(hi-lo) / float64(busy)
			}
		}
	}
	var p50s []float64
	for k := range p.winOpsPerS {
		p.winOpsPerS[k] /= winLen.Seconds()
		if len(winLat[k]) > 0 {
			p50s = append(p50s, median(winLat[k]))
			p.winP50ms = append(p.winP50ms, p50s[len(p50s)-1])
		}
	}
	sort.Float64s(p.latMS)
	sort.Float64s(p.genLagMS)
	sort.Float64s(p50s)
	p.opsPerS = percentile(sortedCopy(p.winOpsPerS), quiet)
	p.p50ms = percentile(p50s, 1-quiet)
	return p
}

// winSpread is (max − min) ÷ median of the per-window throughput: how much
// the host disturbed the run.
func (p phase) winSpread() float64 {
	s := sortedCopy(p.winOpsPerS)
	mid := percentile(s, 0.5)
	if mid == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / mid
}

// moreSetups is the adaptive set-up repeat rule: single-shot set-ups of
// 40 ms to 1 s varied 25-30 % between runs, so set-up repeats on fresh
// objects until there are at least setupMinReps timings and at least
// setupMinTime of them, and the median is reported.
func moreSetups(reps int, total time.Duration) bool {
	return reps < setupMinReps || total < setupMinTime
}

// medianCall calls f until it has run at least minReps times and for at
// least minDur, and returns the median duration of a call.
func medianCall(minDur time.Duration, minReps int, f func()) time.Duration {
	var d []float64
	var total time.Duration
	for len(d) < minReps || total < minDur {
		t := time.Now()
		f()
		e := time.Since(t)
		total += e
		d = append(d, float64(e))
	}
	return time.Duration(median(d))
}
