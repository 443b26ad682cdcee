package sched

import (
	"sync"
	"time"
)

// Bucket is one tenant's admission token bucket, denominated in modeled
// DRAM bytes. Tokens refill continuously at rate bytes/second up to the
// burst cap; a request costing n bytes is admitted when the balance
// covers it. Jobs larger than the burst are admitted against a full
// bucket and drive the balance negative (deficit carry-over), so a
// tenant can run occasional over-burst work — paced by the debt it
// leaves behind — rather than being locked out forever.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

// NewBucket returns a full bucket refilling at rate bytes/second with
// the given burst capacity. rate and burst must be positive.
func NewBucket(rate float64, burst int64) *Bucket {
	b := &Bucket{rate: rate, burst: float64(burst), now: time.Now}
	b.tokens = b.burst
	b.last = b.now()
	return b
}

// refillLocked advances the balance to now. b.mu must be held.
func (b *Bucket) refillLocked(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// Take tries to admit a job of n modeled bytes. On success it debits the
// balance (possibly into deficit, for over-burst jobs) and returns ok.
// On failure it returns how long the caller should wait before retrying
// — the time for the refill to cover the shortfall.
//
//spmv:hotpath allow=mutex
func (b *Bucket) Take(n int64) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.refillLocked(now)
	// An over-burst job is admitted when the bucket is full; anything
	// else needs its own cost covered.
	need := float64(n)
	if need > b.burst {
		need = b.burst
	}
	if b.tokens >= need {
		b.tokens -= float64(n)
		return true, 0
	}
	deficit := need - b.tokens
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// Refund returns n tokens a Take debited for a job that was then refused
// without running, up to the burst cap.
func (b *Bucket) Refund(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = min(b.tokens+float64(n), b.burst)
}

// Wait blocks until a Take of n succeeds or cancel closes, reporting
// which. It is the pacing primitive of long-running work (solver
// sessions charge their iteration bursts through it): instead of being
// rejected, the session sleeps out its own refill.
func (b *Bucket) Wait(n int64, cancel <-chan struct{}) bool {
	for {
		ok, retry := b.Take(n)
		if ok {
			return true
		}
		if retry < time.Millisecond {
			retry = time.Millisecond
		}
		t := time.NewTimer(retry)
		select {
		case <-cancel:
			t.Stop()
			return false
		case <-t.C:
		}
	}
}

// Balance returns the current token balance in modeled bytes (negative
// while paying off an over-burst deficit).
func (b *Bucket) Balance() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	return int64(b.tokens)
}
