package server

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/sched"
)

// servable is one matrix behind the front door, whatever serves it: a
// local *Entry (registry, batcher, fused sweeps) or a cluster
// *shardedEntry (row bands fanned out to members). MulOpts, SolveOpts, the
// solver loop, DeleteMatrix and the listing are each written once against
// it, so validation, admission, deadline, ledger and latency accounting
// cannot drift between the two; lookup is the only code that knows there
// are two kinds and in which order an id resolves. A solver iteration is
// a mul of the session's own item: Muls and sweeps take one path.
type servable interface {
	// Dims returns the logical matrix's (rows, cols).
	Dims() (rows, cols int)
	// model returns the modeled DRAM bytes one single-RHS request moves —
	// a Mul's admission cost and a solver session's per-sweep charge — and
	// the serving generation it was read from (always 0 for a sharded
	// matrix, whose bands are fixed at registration).
	// It fails while the matrix cannot serve yet.
	model() (bytes int64, gen int, err error)
	// symmetricMatrix reports whether the logical matrix is numerically
	// symmetric, whatever storage serves it: CG's precondition.
	symmetricMatrix() bool
	// mul executes one batch item (see pending): an admitted request or a
	// solver session's sweep, with the admission state to settle when
	// execution starts; affinity is the sharded routing key.
	mul(s *Server, p *pending, class sched.Class, affinity string) ([]float64, error)
	// listing is the matrix's row in GET /v1/matrices.
	listing() MatrixInfo
	// teardown takes the matrix out of service: it leaves its table first
	// (new requests see ErrUnknownMatrix; losing that race to a concurrent
	// DELETE is the error), then its solver sessions are cancelled and
	// drained and its batchers purged, then whatever it holds elsewhere is
	// released. Sweeps already in flight finish on the snapshots they
	// loaded.
	teardown(s *Server) (DeleteResult, error)
}

// lookup resolves id to what serves it: the local registry first, then
// the attached cluster.
func (s *Server) lookup(id string) (servable, error) {
	e, err := s.reg.get(id)
	if err == nil {
		return e, nil
	}
	if s.cluster != nil && s.cluster.Has(id) {
		if se, cerr := s.cluster.entry(id); cerr == nil {
			return se, nil
		}
	}
	return nil, err
}

// Matrices lists every served matrix: the registry's entries ordered by
// id, then the attached cluster's sharded matrices ordered by id.
func (s *Server) Matrices() []MatrixInfo {
	entries := s.reg.list()
	out := make([]MatrixInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.listing())
	}
	if s.cluster != nil {
		for _, e := range s.cluster.sharded() {
			out = append(out, e.listing())
		}
	}
	return out
}

// drain cancels the matrix's solver sessions (returning how many) and
// drops its batchers: the middle step of every teardown.
func (s *Server) drain(id string) int {
	n := s.cancelMatrixSessions(id)
	s.purgeBatchers(id)
	return n
}

func (e *Entry) model() (int64, int, error) {
	sv := e.cur.Load()
	if sv == nil {
		return 0, 0, fmt.Errorf("server: matrix %q is still compiling", e.ID)
	}
	// The overlay stream rides on every sweep of a patched matrix.
	return sv.matrixBytes + sv.sourceBytes + sv.destBytes + sv.ovBytes, sv.gen, nil
}

func (e *Entry) mul(s *Server, p *pending, class sched.Class, _ string) ([]float64, error) {
	if p.ch == nil {
		p.ch = make(chan mulResult, 1)
	}
	return s.batcherFor(e, class, p.cancel != nil).mul(p)
}

func (e *Entry) teardown(s *Server) (DeleteResult, error) {
	if !s.reg.remove(e.ID) {
		return DeleteResult{}, fmt.Errorf("%w %q", ErrUnknownMatrix, e.ID)
	}
	return DeleteResult{CancelledSessions: s.drain(e.ID)}, nil
}

func (e *shardedEntry) Dims() (rows, cols int) { return e.rows, e.cols }

// model charges the fleet-wide bytes of one sharded request (the sum of
// band sweep bytes), so a tenant's sharded traffic draws down the same
// budget as its local traffic. Its bands never change, so its
// generation is always 0.
func (e *shardedEntry) model() (int64, int, error) {
	return e.sweepBytes, 0, nil
}

func (e *shardedEntry) symmetricMatrix() bool {
	e.symOnce.Do(func() { e.symIs = e.src.IsSymmetric() })
	return e.symIs
}

// mul is the sharded counterpart of executeBatch for a batch of one: the
// gate orders the fan-out against local sweeps (a bulk sharded request
// queues behind latency-class work like a local batch; a session's wait
// ends with the session), then the request's bytes leave the queued
// ledger, an expired deadline or a non-finite x fails it, and the fan-out
// runs into p.y. A session item's bands go through Transport.Sweep, keyed
// by the session id (affinity), and its x is left to the members' scans;
// the bands are fixed at registration, so its generation is always 0.
func (e *shardedEntry) mul(s *Server, p *pending, class sched.Class, affinity string) ([]float64, error) {
	if sc := s.sched; sc != nil && sc.gate != nil {
		if !sc.gate.Acquire(class, p.cost, p.cancel) {
			return nil, errSessionCancelled
		}
		defer sc.gate.Release()
	}
	if p.acct != nil {
		p.acct.queuedBytes.Add(-p.cost)
	}
	if err := p.dropped(1); err != nil {
		return nil, err
	}
	if p.cancel == nil && !kernel.Finite(p.x) {
		return nil, errNonFiniteX
	}
	y := p.y
	if y == nil {
		y = make([]float64, e.rows)
	}
	var t0 time.Time
	if s.obs != nil {
		t0 = time.Now()
	}
	if err := s.cluster.fanOut(e, y, p.x, affinity, p.cancel != nil); err != nil {
		return nil, err
	}
	if s.obs != nil {
		p.dur = time.Since(t0)
	}
	return y, nil
}

func (e *shardedEntry) listing() MatrixInfo {
	si := e.info()
	return MatrixInfo{
		ID: si.ID, Name: si.Name, Rows: si.Rows, Cols: si.Cols, NNZ: si.NNZ,
		Kernel: "sharded", Shards: si.Shards, Replicas: si.Replicas,
		SweepBytes: si.MaxBandSweepBytes,
	}
}

// teardown additionally unregisters the bands on every replica,
// best-effort: member faults are collected into one ErrMemberFault, but
// the matrix is gone from the coordinator regardless — an unreachable
// member keeps a dangling band registration, surfaced by the error so an
// operator can retry against it.
func (e *shardedEntry) teardown(s *Server) (DeleteResult, error) {
	if !s.cluster.detach(e.id) {
		return DeleteResult{}, fmt.Errorf("%w %q (sharded)", ErrUnknownMatrix, e.id)
	}
	res := DeleteResult{Sharded: true, CancelledSessions: s.drain(e.id)}
	faults := unregisterBands(e.bands)
	for _, b := range e.bands {
		res.Bands += len(b.replicas)
	}
	res.Bands -= len(faults)
	if len(faults) > 0 {
		return res, fmt.Errorf("%w: %d band teardown(s) failed (first: %v)", ErrMemberFault, len(faults), faults[0])
	}
	return res, nil
}
