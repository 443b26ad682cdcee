package sched

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestClassRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("interactive"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
	if _, err := ParseClass(""); err == nil {
		t.Error("ParseClass accepted the empty string")
	}
	if s := Class(17).String(); s != "class(17)" {
		t.Errorf("out-of-range String() = %q", s)
	}
}

func TestConfigLimitFor(t *testing.T) {
	cfg := Config{
		BytesPerSec: 1000,
		Tenants: map[string]TenantLimit{
			"vip":   {BytesPerSec: 8000, Burst: 64000},
			"burst": {Burst: 5000},
		},
	}
	if r, b := cfg.LimitFor("anon"); r != 1000 || b != DefaultBurstSeconds*1000 {
		t.Errorf("default tenant limit = %g, %d", r, b)
	}
	if r, b := cfg.LimitFor("vip"); r != 8000 || b != 64000 {
		t.Errorf("vip limit = %g, %d", r, b)
	}
	if r, b := cfg.LimitFor("burst"); r != 1000 || b != 5000 {
		t.Errorf("partial override limit = %g, %d", r, b)
	}
	if !cfg.AdmissionControlled() || !cfg.Active() {
		t.Error("config with a default rate should be admission-controlled")
	}
	if (Config{}).Active() {
		t.Error("zero config should be inactive")
	}
	onlyTenant := Config{Tenants: map[string]TenantLimit{"a": {BytesPerSec: 5}}}
	if !onlyTenant.AdmissionControlled() {
		t.Error("a tenant override alone should enable admission control")
	}
}

// fakeClock drives Bucket/Gate time deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBucketTakeRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBucket(1000, 2000) // 1000 B/s, 2000 B burst
	b.now = clk.now
	b.last = clk.now()

	if ok, _ := b.Take(1500); !ok {
		t.Fatal("full bucket refused an in-burst take")
	}
	ok, retry := b.Take(1500)
	if ok {
		t.Fatal("drained bucket admitted a second take")
	}
	// 500 tokens remain; 1000 more needed at 1000 B/s => 1s.
	if retry < 999*time.Millisecond || retry > 1001*time.Millisecond {
		t.Fatalf("retryAfter = %v, want ~1s", retry)
	}
	clk.advance(time.Second)
	if ok, _ := b.Take(1500); !ok {
		t.Fatal("refilled bucket refused the retried take")
	}
	// Refill must cap at burst.
	clk.advance(time.Hour)
	if got := b.Balance(); got != 2000 {
		t.Fatalf("balance after long idle = %d, want burst 2000", got)
	}
}

func TestBucketOverBurstDeficit(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBucket(1000, 2000)
	b.now = clk.now
	b.last = clk.now()

	// A job larger than the burst admits against a full bucket…
	if ok, _ := b.Take(5000); !ok {
		t.Fatal("full bucket refused an over-burst job")
	}
	// …and leaves a deficit that paces the next job.
	if got := b.Balance(); got != -3000 {
		t.Fatalf("deficit = %d, want -3000", got)
	}
	if ok, retry := b.Take(100); ok || retry < 3*time.Second {
		t.Fatalf("deficit bucket admitted (%v) or under-estimated retry (%v)", ok, retry)
	}
	// Refunding the refused job restores the balance, capped at the burst.
	b.Refund(5000)
	if got := b.Balance(); got != 2000 {
		t.Fatalf("balance after refund = %d, want 2000", got)
	}
	b.Refund(1)
	if got := b.Balance(); got != 2000 {
		t.Fatalf("refund overfilled the bucket: %d", got)
	}
}

func TestBucketWait(t *testing.T) {
	b := NewBucket(100000, 1000) // fast real-time refill: 100 kB/s
	if ok, _ := b.Take(1000); !ok {
		t.Fatal("initial take")
	}
	done := make(chan bool, 1)
	go func() { done <- b.Wait(500, nil) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait returned false without cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not complete on refill")
	}

	// Cancellation unblocks a Wait that can never succeed soon.
	slow := NewBucket(1, 10)
	slow.Take(10)
	cancel := make(chan struct{})
	go func() { done <- slow.Wait(10, cancel) }()
	close(cancel)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("cancelled Wait reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Wait did not return")
	}
}

// acquireOrder drains the gate's queue one Release at a time and records
// the order jobs were dispatched.
func TestGatePriorityAndSJF(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	g := NewGate(1, time.Hour) // aging effectively off for this test
	g.now = clk.now

	if !g.Acquire(Latency, 1, nil) {
		t.Fatal("empty gate refused a slot")
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(name string, c Class, bytes int64) {
		wg.Add(1)
		before := g.Waiting()
		go func() {
			defer wg.Done()
			g.Acquire(c, bytes, nil)
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			g.Release()
		}()
		// Wait until the job is actually queued before launching the next,
		// so arrival order (the FIFO tie-break) is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for g.Waiting() <= before {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never queued", name)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	enqueue("bulk-small", Bulk, 10)
	enqueue("std-big", Standard, 900)
	enqueue("std-small", Standard, 100)
	enqueue("lat-big", Latency, 500)
	qb := g.QueuedBytes()
	if qb[Latency] != 500 || qb[Standard] != 1000 || qb[Bulk] != 10 {
		t.Fatalf("queued bytes = %v", qb)
	}

	g.Release() // free the held slot; the queue drains in priority order
	wg.Wait()

	want := []string{"lat-big", "std-small", "std-big", "bulk-small"}
	mu.Lock()
	defer mu.Unlock()
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("dispatch order = %v, want %v", order, want)
		}
	}
	if g.Waiting() != 0 {
		t.Fatalf("gate still has %d waiters", g.Waiting())
	}
}

// TestGateAgingEscalator: a bulk job that has waited long enough beats
// even fresh latency work — the starvation guarantee.
func TestGateAgingEscalator(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	g := NewGate(1, 10*time.Millisecond)
	g.now = clk.now

	if !g.Acquire(Latency, 1, nil) {
		t.Fatal("empty gate refused a slot")
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(name string, c Class, bytes int64) {
		wg.Add(1)
		before := g.Waiting()
		go func() {
			defer wg.Done()
			g.Acquire(c, bytes, nil)
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			g.Release()
		}()
		deadline := time.Now().Add(5 * time.Second)
		for g.Waiting() <= before {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never queued", name)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	enqueue("bulk", Bulk, 1<<30) // huge: SJF alone would never pick it
	// Bulk has now waited 3 aging periods: effective class 2-3 = -1.
	clk.advance(30 * time.Millisecond)
	enqueue("lat", Latency, 1)

	g.Release()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if order[0] != "bulk" {
		t.Fatalf("dispatch order = %v: aged bulk should outrank fresh latency", order)
	}
}

// TestGateAcquireCancel: a cancelled waiter leaves the queue and reports
// failure; a job whose dispatch raced the cancel keeps its slot.
func TestGateAcquireCancel(t *testing.T) {
	g := NewGate(1, time.Hour)
	if !g.Acquire(Standard, 1, nil) {
		t.Fatal("empty gate refused a slot")
	}
	cancel := make(chan struct{})
	res := make(chan bool, 1)
	go func() { res <- g.Acquire(Bulk, 1, cancel) }()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
	}
	close(cancel)
	if <-res {
		t.Fatal("cancelled Acquire reported success")
	}
	if g.Waiting() != 0 {
		t.Fatal("cancelled waiter still queued")
	}
	// The held slot releases with nothing waiting.
	g.Release()
	if !g.Acquire(Latency, 1, nil) {
		t.Fatal("slot not recovered after cancelled waiter")
	}
	g.Release()
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		alloc []float64
		want  float64
	}{
		{nil, 1},
		{[]float64{0, 0}, 1},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
		{[]float64{4, 2}, (6.0 * 6.0) / (2 * (16.0 + 4.0))},
		{[]float64{3, -7}, 0.5}, // negatives clamp to 0: same as {3, 0}
	}
	for _, c := range cases {
		if got := JainIndex(c.alloc); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %g, want %g", c.alloc, got, c.want)
		}
	}
}

// TestGateConcurrencyBound: the gate never lets more than slots jobs run
// at once under a concurrent storm (race-detector workout).
func TestGateConcurrencyBound(t *testing.T) {
	const slots = 3
	g := NewGate(slots, time.Millisecond)
	var running, peak, violations int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := Class(i % int(NumClasses))
			if !g.Acquire(c, int64(i), nil) {
				return
			}
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			if running > slots {
				violations++
			}
			mu.Unlock()
			time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
			mu.Lock()
			running--
			mu.Unlock()
			g.Release()
		}(i)
	}
	wg.Wait()
	if violations > 0 {
		t.Fatalf("gate admitted more than %d concurrent jobs (peak %d)", slots, peak)
	}
	if g.Waiting() != 0 {
		t.Fatalf("gate still has %d waiters", g.Waiting())
	}
}
