package server

import (
	"runtime"
	"sync"
)

// Pool is the server's sweep executor: a fixed set of worker goroutines
// (standing in for the paper's pinned Pthreads) that run the shards of one
// sweep, plus an admission semaphore bounding how many sweeps execute
// concurrently. Bounding sweeps rather than requests is what lets the
// batcher convert queueing pressure into wider fusion instead of more
// context switches.
type Pool struct {
	tasks chan poolTask
	quit  chan struct{}
	sem   chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

type poolTask struct {
	f    func()
	done *sync.WaitGroup
}

// NewPool starts workers goroutines (GOMAXPROCS when <= 0) and admits at
// most that many concurrent sweeps.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		tasks: make(chan poolTask),
		quit:  make(chan struct{}),
		sem:   make(chan struct{}, workers),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case <-p.quit:
					return
				case t := <-p.tasks:
					t.f()
					t.done.Done()
				}
			}
		}()
	}
	return p
}

// RunSweep executes the shard functions of one sweep on the pool and waits
// for all of them, holding one admission slot for the duration. The last
// shard runs on the calling goroutine so a sweep always makes progress
// even when every worker is busy with other sweeps' shards.
func (p *Pool) RunSweep(shards []func()) {
	if len(shards) == 0 {
		return
	}
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	var done sync.WaitGroup
	done.Add(len(shards) - 1)
	for _, f := range shards[:len(shards)-1] {
		select {
		case p.tasks <- poolTask{f: f, done: &done}:
		default:
			// All workers busy: run inline rather than queueing behind
			// other sweeps (avoids cross-sweep deadlock and keeps tail
			// latency bounded).
			f()
			done.Done()
		}
	}
	shards[len(shards)-1]()
	done.Wait()
}

// Saturated reports whether every sweep slot is taken, so a sweep started
// now would queue for one.
func (p *Pool) Saturated() bool { return len(p.sem) == cap(p.sem) }

// Close stops the workers and waits for them. The tasks channel is never
// closed, so a straggler RunSweep racing Close degrades to inline
// execution (its sends hit the select's default case) instead of
// panicking.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
}
