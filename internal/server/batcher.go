package server

import (
	"runtime"
	"sync"
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
// Lingering buys bandwidth at the price of latency, and pays only when a
// follower can still come. With adaptive on, a leader lingers only while
// every sweep slot of the pool is taken (its sweep would queue anyway) or
// while callers handed results less than one window ago have not all come
// back; otherwise it sweeps at once, so a serial client, or one whose
// peers are all mid-sweep, never waits for a join that cannot happen.
// With adaptive off every leader lingers the full window.
type batcher struct {
	maxBatch int
	window   time.Duration
	adaptive bool
	busy     func() bool      // every sweep slot of the pool is taken
	exec     func([]*pending) // executes a closed batch and delivers results

	mu        sync.Mutex
	open      *openBatch
	returning int       // callers handed results and not back yet
	released  time.Time // when the last results were handed out
}

// handOut counts n callers about to get their results (or errors) as
// returning; executeBatch calls it before the sends, so the first caller
// back sees its peers counted. Each arrival takes one off, whichever batch
// it came from, so the count is exact in a closed loop; one left high by
// callers that never return holds leaders for at most a window after a
// hand-out.
func (b *batcher) handOut(n int) {
	b.mu.Lock()
	b.returning += n
	b.released = time.Now()
	b.mu.Unlock()
}

// mul admits one request and blocks until its sweep completes.
func (b *batcher) mul(p *pending) ([]float64, error) {
	b.mu.Lock()
	if b.returning > 0 {
		b.returning-- // this caller is back
	}
	switch ob := b.open; {
	case ob != nil: // join the leader's open batch
		ob.reqs = append(ob.reqs, p)
		if len(ob.reqs) >= b.maxBatch {
			b.open = nil // detach before closing: no joins after full
			close(ob.full)
		}
		b.mu.Unlock()
	case b.maxBatch == 1 || b.window <= 0 ||
		b.adaptive && (b.returning == 0 || time.Since(b.released) >= b.window) && !b.busy():
		b.mu.Unlock()
		b.exec([]*pending{p}) // no follower can come: sweep at once
	default: // lead a batch
		ob = &openBatch{reqs: []*pending{p}, full: make(chan struct{})}
		b.open = ob
		b.mu.Unlock()
		b.linger(ob)
		// The batch is detached: reqs is frozen and safely published to
		// this goroutine (mutex after the deadline, channel close if full).
		b.exec(ob.reqs)
	}
	r := <-p.ch
	return r.y, r.err
}

// linger waits out the window, or less if the batch fills, then detaches
// the batch. The runtime timer rounds every sub-millisecond wait up to about
// a millisecond, so a shorter window is waited out by yielding until its
// deadline instead.
func (b *batcher) linger(ob *openBatch) {
	if b.window >= time.Millisecond {
		timer := time.NewTimer(b.window)
		select {
		case <-ob.full:
			timer.Stop()
			return
		case <-timer.C:
		}
	} else {
		for end := time.Now().Add(b.window); time.Now().Before(end); runtime.Gosched() {
			select {
			case <-ob.full:
				return
			default:
			}
		}
	}
	b.mu.Lock()
	if b.open == ob {
		b.open = nil
	}
	b.mu.Unlock()
}
