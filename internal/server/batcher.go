package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// mulResult is one request's outcome.
type mulResult struct {
	y   []float64
	err error
}

// pending is one admitted Mul request waiting for its sweep. enq and
// traced are the observability layer's per-request state (zero when the
// layer is off): enq anchors the queue-wait span and the per-matrix
// latency histogram, traced marks the requests the sampler picked for a
// full span trace, sent is when the sweep's results were ready (stamped by
// executeBatch before it delivers on ch, so the requester reads it after
// the receive). acct/cost/deadline are the scheduling layer's state:
// the tenant ledger holding the request's queued bytes (nil when
// admission is off), the modeled byte cost it was admitted at, and the
// absolute instant after which it must fail instead of execute (zero
// when none).
type pending struct {
	x        []float64
	ch       chan mulResult
	enq      time.Time
	traced   bool
	sent     time.Time
	acct     *tenantAccount
	cost     int64
	deadline time.Time
}

// openBatch is a batch still accepting joiners. reqs is guarded by the
// owning batcher's mutex; full is closed (with the batch already detached)
// when the batch reaches the width cap.
type openBatch struct {
	reqs []*pending
	full chan struct{}
}

// batcher coalesces concurrent Mul requests against one matrix into fused
// multi-RHS sweeps. The first request of a burst becomes the leader: it
// opens a batch, lingers up to window for followers (or until maxBatch
// requests have joined), then executes one sweep for the whole batch.
// Followers just park on their result channel — the leader streams the
// matrix once for all of them.
//
// Adaptivity: lingering buys bandwidth at the price of latency, which is a
// bad trade when traffic is sparse. With adaptive on, a leader skips the
// linger entirely when no sweep is in flight and the previous request
// arrived more than 4 windows ago — lone requests keep single-request
// latency, while any burst or backlog re-enables coalescing.
type batcher struct {
	maxBatch int
	window   time.Duration
	adaptive bool
	exec     func([]*pending) // executes a closed batch and delivers results

	mu          sync.Mutex
	open        *openBatch
	lastArrival time.Time
	inflight    atomic.Int32 // sweeps currently executing
}

func newBatcher(maxBatch int, window time.Duration, adaptive bool, exec func([]*pending)) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &batcher{maxBatch: maxBatch, window: window, adaptive: adaptive, exec: exec}
}

// mul admits one request and blocks until its sweep completes.
func (b *batcher) mul(p *pending) ([]float64, error) {
	b.mu.Lock()
	now := time.Now()
	interval := now.Sub(b.lastArrival)
	b.lastArrival = now

	if ob := b.open; ob != nil {
		// Join the leader's open batch.
		ob.reqs = append(ob.reqs, p)
		if len(ob.reqs) >= b.maxBatch {
			b.open = nil // detach before closing: no joins after full
			close(ob.full)
		}
		b.mu.Unlock()
		r := <-p.ch
		return r.y, r.err
	}

	// Become the leader.
	linger := b.window
	if b.maxBatch == 1 {
		linger = 0
	} else if b.adaptive && b.inflight.Load() == 0 && interval > 4*b.window {
		linger = 0 // sparse traffic: don't tax a lone request with latency
	}
	if linger <= 0 {
		b.mu.Unlock()
		b.run([]*pending{p})
		r := <-p.ch
		return r.y, r.err
	}
	ob := &openBatch{reqs: []*pending{p}, full: make(chan struct{})}
	b.open = ob
	b.mu.Unlock()

	timer := time.NewTimer(linger)
	select {
	case <-ob.full:
		timer.Stop()
	case <-timer.C:
		b.mu.Lock()
		if b.open == ob {
			b.open = nil
		}
		b.mu.Unlock()
	}
	// The batch is detached: reqs is frozen and safely published to this
	// goroutine (mutex in the timer path, channel close in the full path).
	b.run(ob.reqs)
	r := <-p.ch
	return r.y, r.err
}

func (b *batcher) run(reqs []*pending) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.exec(reqs)
}
