package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"
)

const ms = time.Millisecond

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := percentile(v, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// Windows the host disturbed must not move the reported figures, and
// neither must the odd window that came out fast: they are the upper
// quartile of the windows' throughput and the lower quartile of the windows'
// median latency.
func TestSummarizeReportsTheUndisturbedWindows(t *testing.T) {
	var samples []sample
	for win := 0; win < 10; win++ {
		n, lat := 10, 10*ms // 10 ops of 10 ms in a 1 s window
		if win == 3 || win == 4 {
			n, lat = 5, 30*ms // the noisy neighbour's windows
		}
		if win == 7 {
			n, lat = 20, 5*ms // the neighbours fell silent
		}
		for k := 0; k < n; k++ {
			start := time.Duration(win)*time.Second + time.Duration(k)*(time.Second/time.Duration(n))
			samples = append(samples, sample{due: start, start: start, end: start + lat})
		}
	}
	p := summarize(samples, 10*time.Second, 20*ms)
	if !near(p.opsPerS, 10) || !near(p.p50ms, 10) {
		t.Errorf("ops/s %v and p50 %v ms, want 10 and 10", p.opsPerS, p.p50ms)
	}
	if len(p.winOpsPerS) != 10 || !near(p.winOpsPerS[3], 5) {
		t.Errorf("windows %v, want ten with the fourth at 5 ops/s", p.winOpsPerS)
	}
	if p.attempted != 100 || p.ontime != 90 || p.failed != 0 {
		t.Errorf("attempted %d ontime %d failed %d, want 100 90 0", p.attempted, p.ontime, p.failed)
	}
	if !near(p.winSpread(), 1.5) {
		t.Errorf("window spread %v, want 1.5", p.winSpread())
	}
}

// An op that spans a window boundary counts towards both windows in
// proportion, and a failed op counts for nothing but the failure.
func TestSummarizeSplitsOpsAcrossWindows(t *testing.T) {
	samples := []sample{
		{due: 0, start: 0, end: 1500 * ms},                            // 2/3 in window 0, 1/3 in window 1
		{due: 1500 * ms, start: 1500 * ms, end: 2000 * ms},            // all in window 1
		{due: 100 * ms, start: 100 * ms, end: 200 * ms, failed: true}, // refused
	}
	p := summarize(samples, 2*time.Second, time.Second)
	if !near(p.winOpsPerS[0], 2.0/3) || !near(p.winOpsPerS[1], 1+1.0/3) {
		t.Errorf("window throughputs %v, want [2/3 4/3]", p.winOpsPerS)
	}
	if p.attempted != 3 || p.failed != 1 || p.ontime != 1 {
		t.Errorf("attempted %d failed %d ontime %d, want 3 1 1", p.attempted, p.failed, p.ontime)
	}
}

// fakeClock only moves when someone sleeps or an op takes time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleepUntil(t time.Duration) {
	c.t = max(c.t, t)
}

// In an open loop latency runs from the instant the op was due, so an op
// that stalls delays the latencies of the ops queued behind it.
func TestOpenLoopChargesStallToSuccessors(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms}
	service := []time.Duration{ms, 25 * ms, ms, ms}
	samples := runOpen(clk, due, 1, func(i int) (bool, func()) {
		clk.t += service[i]
		return false, nil
	})
	wantLat := []time.Duration{ms, 25 * ms, 16 * ms, 7 * ms}
	wantLag := []time.Duration{0, 0, 15 * ms, 6 * ms}
	for i, s := range samples {
		if s.latency() != wantLat[i] || s.start-s.due != wantLag[i] {
			t.Errorf("op %d: latency %v lag %v, want %v and %v", i, s.latency(), s.start-s.due, wantLat[i], wantLag[i])
		}
	}
	p := summarize(samples, 40*ms, 10*ms)
	if p.ontime != 2 {
		t.Errorf("%d ops on time, want 2: the stalled op and the one right behind it miss", p.ontime)
	}
	if got := percentile(p.genLagMS, 1); !near(got, 15) {
		t.Errorf("worst generator lag %v ms, want 15", got)
	}
}

func TestClosedLoopRunsAfterOutsideTheTimedInterval(t *testing.T) {
	var order []string
	samples := runClosed(1, 20*ms, func(_, i int) (bool, func()) {
		order = append(order, "op")
		time.Sleep(15 * ms)
		return i == 1, func() { order = append(order, "check") }
	})
	if len(samples) != 2 || samples[0].failed || !samples[1].failed {
		t.Fatalf("samples %+v, want two ops, the second failed", samples)
	}
	if samples[1].start < samples[0].end {
		t.Errorf("op 1 started at %v before op 0 ended at %v", samples[1].start, samples[0].end)
	}
	if len(order) != 4 || order[1] != "check" {
		t.Errorf("order %v, want each op followed by its check", order)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps span 2: 10..60 is covered once
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // sticks out: only 90..100 counts
		{ID: 5, Parent: 2, StartNS: 15, EndNS: 20},  // a grandchild changes span 2, not span 1
		{ID: 6, StartNS: 200, EndNS: 230},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerLinksChildrenAndNilTracerIsInert(t *testing.T) {
	tr := newTracer()
	root := tr.start(7, "op", "client")
	kid := root.child("Server.MulOpts", "server")
	kid.end()
	root.end()
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[1].Req != 7 {
		t.Errorf("spans %+v: the child must carry its parent's id and request", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	var none *tracer
	s := none.start(1, "op", "client")
	s.child("x", "y").end()
	s.end()
}

func TestSetupRepeatRule(t *testing.T) {
	for _, c := range []struct {
		reps  int
		total time.Duration
		more  bool
	}{
		{0, 0, true},
		{2, 10 * time.Second, true},   // long set-ups still repeat three times
		{3, 120 * ms, true},           // three 40 ms set-ups are not yet 2 s
		{49, 1960 * ms, true},         //
		{50, 2 * time.Second, false},  // the 40 ms sharded register repeats 50 times
		{3, 14 * time.Second, false},  // lib-sweep's six compiles stop at three
		{5, 2*time.Second + 1, false}, //
		{5, 2*time.Second - time.Nanosecond, true},
	} {
		if got := moreSetups(c.reps, c.total); got != c.more {
			t.Errorf("moreSetups(%d, %v) = %v, want %v", c.reps, c.total, got, c.more)
		}
	}
}

func TestDeferredChecksStayBoundedAndSpread(t *testing.T) {
	var d deferredChecks
	var ran []int
	const offers = 1000
	for n := 0; n < offers; n++ {
		d.offer(func() { ran = append(ran, n) })
	}
	d.run()
	if len(ran) < maxDeferred/2 || len(ran) > maxDeferred {
		t.Fatalf("%d checks kept, want between %d and %d", len(ran), maxDeferred/2, maxDeferred)
	}
	if ran[0] != 0 {
		t.Errorf("first kept check is offer %d, want 0", ran[0])
	}
	step := ran[1] - ran[0]
	for k := 1; k < len(ran); k++ {
		if ran[k]-ran[k-1] != step {
			t.Fatalf("kept offers %v are not evenly spaced", ran)
		}
	}
	if last := ran[len(ran)-1]; last < offers-step {
		t.Errorf("last kept check is offer %d of %d: the end of the phase is not covered", last, offers)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 8, 4}, 2.5, 9.5},
		{[]float64{3, 1, 2, 5, 4}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.v); !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening("higher", 100, 90); !near(got, 0.1) {
		t.Errorf("throughput 100 -> 90 worsens by %v, want 0.1", got)
	}
	if got := worsening("lower", 100, 90); !near(got, -0.1) {
		t.Errorf("latency 100 -> 90 worsens by %v, want -0.1", got)
	}
}

func TestArrivalsFollowTheSeed(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 300, 2*time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 300, 2*time.Second)
	c := arrivals(rand.New(rand.NewSource(8)), 300, 2*time.Second)
	if len(a) != len(b) || a[0] != b[0] || a[len(a)-1] != b[len(b)-1] {
		t.Errorf("the same seed gave different schedules")
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Errorf("different seeds gave the same schedule")
	}
	if len(a) < 590 || len(a) > 610 {
		t.Errorf("%d arrivals in 2 s at 300/s", len(a))
	}
	// Paced, not Poisson: every gap is within paceJitter of the mean gap, so
	// ops queue behind a stall and not behind each other.
	mean := time.Second / 300
	lo, hi := time.Duration((1-paceJitter)*float64(mean))-1, time.Duration((1+paceJitter)*float64(mean))+1
	for k := 1; k < len(a); k++ {
		if gap := a[k] - a[k-1]; gap < lo || gap > hi {
			t.Fatalf("gap %d is %v, want within %v..%v", k, gap, lo, hi)
		}
	}
}

// The names the harness emits are the names ../BENCHMARK.json declares.
func TestDeclaredNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit, Better string }
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "e2ebench" {
		t.Errorf("paths %v, want [e2ebench]", doc.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	same := func(what string, ours []metric, theirs []decl) {
		if len(ours) != len(theirs) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", what, len(ours), len(theirs))
		}
		for k, m := range ours {
			name(m.name)
			if !unitRE.MatchString(m.unit) {
				t.Errorf("%s: unit %q is not of the allowed form", m.name, m.unit)
			}
			if got := (decl{m.name, m.unit, m.better}); got != theirs[k] {
				t.Errorf("%s %d: harness %v, BENCHMARK.json %v", what, k, got, theirs[k])
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	if len(workloads) != len(doc.Workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(workloads), len(doc.Workloads))
	}
	for k, w := range workloads {
		name(w.name)
		if w.name != doc.Workloads[k].Name {
			t.Errorf("workload %d: harness %q, BENCHMARK.json %q", k, w.name, doc.Workloads[k].Name)
		}
		if n := len(doc.Workloads[k].Why); n == 0 || n > 200 {
			t.Errorf("workload %q: why has %d characters", w.name, n)
		}
	}
}
