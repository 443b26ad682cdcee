package server

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// mulResult is one request's outcome.
type mulResult struct {
	y   []float64
	err error
}

// pending is one batch item: a Mul request (a member band sweep is one
// with a destination) or a solver session's iteration. A non-nil y is the
// caller's destination, overwritten (nil: executeBatch allocates); a
// non-nil cancel is a session's and marks a session item, which batches
// only with session items, skips tenant admission and is reused across
// iterations. enq and traced are the observability state (zero when off):
// enq anchors the queue span and latency histograms, traced marks a
// sampled trace. executeBatch stamps gen (the snapshot swept), dur (the
// sweep's duration, zero with observability off) and sent (results ready)
// before it delivers on ch. acct/cost/deadline are the scheduling state:
// the tenant ledger holding the queued bytes (nil when admission is off),
// the modeled cost, and the instant after which it fails (zero: none).
type pending struct {
	x, y     []float64
	cancel   <-chan struct{}
	ch       chan mulResult
	enq      time.Time
	traced   bool
	gen      int
	dur      time.Duration
	sent     time.Time
	acct     *tenantAccount
	cost     int64
	deadline time.Time
}

// dropped reports why p fails instead of sweeping in a batch of width items
// that holds its gate slot: its deadline passed, or it is a session item
// cancelled while a fused batch waited (a lone item's wait ends at the gate).
func (p *pending) dropped(width int) error {
	if !p.deadline.IsZero() && time.Now().After(p.deadline) {
		return fmt.Errorf("%w: request expired while queued", ErrDeadlineExceeded)
	}
	if p.cancel != nil && width > 1 {
		select {
		case <-p.cancel:
			return errSessionCancelled
		default:
		}
	}
	return nil
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
