// Server-resident iterative solver sessions. The paper motivates SpMV
// tuning by the iterative methods that call it thousands of times; a
// serving layer that only answers one-shot Muls forces such a solver to
// round-trip every vector over the wire once per iteration. A solver
// session keeps the hot per-client state — x, r, p, Ap for CG; q, Aq for
// power iteration — resident server-side (the KV-cache-residency idiom of
// LLM inference servers, applied to linear algebra): the client ships b
// once, the solver iterates through the same worker pool and
// snapshot-swapped serving path as Mul traffic, and the client polls a
// compact residual history.
//
// Determinism contract: session sweeps are batch items on the path every
// Mul takes — lane v of a fused sweep of the entry's current serving
// snapshot has the bits of a width-1 sweep — and the
// solver's reductions run in ordered-block mode. A mid-solve recompaction
// therefore cannot change trajectory bits: the serving candidate set
// (servingTune) holds only encodings that reproduce one accumulation
// order at every width (the same guarantee Mul responses rely on), and
// the ordered reductions are invariant to thread count. The
// solver session state machine is
//
//	running ──▶ converged | budget_exhausted | failed
//	   │
//	   └─────▶ cancelled            (DELETE, or server Close)
//
// with exactly one transition out of running, taken by whichever of the
// session goroutine and a canceller gets there first.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/kernel"
	"repro/internal/sched"
	"repro/internal/solve"
	"repro/internal/traffic"
)

// Session-sizing defaults: DefaultMaxSessions caps resident sessions when
// Config.MaxSessions is unset; DefaultSolveIters is the step budget of a
// request that names none; MaxSolveIters is the hard per-request budget
// cap (bounding the memory a hostile residual history can pin).
const (
	DefaultMaxSessions = 16
	DefaultSolveIters  = 500
	MaxSolveIters      = 100000
)

// solveChargeIters is the iteration-burst granularity solver sessions
// charge their tenant's token bucket at: one burst is admitted up front
// (429 when the bucket cannot cover it), then the session pauses at each
// burst boundary until the bucket refills — pacing long-running solves
// against the same byte budget that meters the tenant's Muls, without
// rejecting a solve mid-flight.
const solveChargeIters = 32

// SolveRequest is the body of POST /v1/matrices/{id}/solve.
type SolveRequest struct {
	// Method selects the solver: "cg" (Conjugate Gradient, symmetric
	// matrices only) or "power" (power iteration, any square matrix).
	Method string `json:"method"`
	// B is the right-hand side of a CG solve; required for cg, rejected
	// for power.
	B []float64 `json:"b,omitempty"`
	// X0 is the optional initial guess (cg) or start vector (power).
	X0 []float64 `json:"x0,omitempty"`
	// Tol is the relative-residual convergence target; 0 runs to the step
	// budget, negative or non-finite values are rejected.
	Tol float64 `json:"tol,omitempty"`
	// MaxIters is the step budget; 0 means DefaultSolveIters, negative or
	// > MaxSolveIters values are rejected.
	MaxIters int `json:"max_iters,omitempty"`
	// Tenant identifies the budget the session's iterations draw from
	// (token-bucket admission and per-burst pacing). Empty means
	// DefaultTenant.
	Tenant string `json:"tenant,omitempty"`
	// Class is the SLO class the session's sweeps are scheduled under
	// ("latency", "standard", "bulk"); empty applies the server default.
	Class string `json:"class,omitempty"`
}

// SolveStatus is one solver session's observable state: GET
// /v1/solve/{sid}, and the creation/cancellation responses.
type SolveStatus struct {
	SID      string `json:"sid"`
	MatrixID string `json:"matrix_id"`
	Method   string `json:"method"`
	// State is the session lifecycle: running, converged,
	// budget_exhausted, cancelled, or failed.
	State string `json:"state"`
	// Deterministic reports that the session iterates with ordered
	// reductions over bit-stable sweeps — every session does, so it is
	// always true; the field stays for clients that read it.
	Deterministic bool    `json:"deterministic"`
	Iters         int     `json:"iters"`
	MaxIters      int     `json:"max_iters"`
	Tol           float64 `json:"tol"`
	// Residual is the latest relative residual (‖b−Ax‖/‖b‖ for cg, the
	// relative eigen-residual for power).
	Residual float64 `json:"residual"`
	// Eigenvalue is power iteration's latest Rayleigh-quotient estimate.
	Eigenvalue float64 `json:"eigenvalue,omitempty"`
	// History is the per-iteration relative residual trajectory.
	History []float64 `json:"history,omitempty"`
	// X is the solution (cg) or unit eigenvector estimate (power),
	// included once the session leaves running.
	X     []float64 `json:"x,omitempty"`
	Error string    `json:"error,omitempty"`
	// ServingGenerationFirst/Last are the entry's serving generations
	// observed at the session's first and latest sweeps: a gap between
	// them is a recompaction the solve iterated across.
	ServingGenerationFirst int `json:"serving_generation_first"`
	ServingGenerationLast  int `json:"serving_generation_last"`
	// ModeledBytesPerIter is the traffic model's DRAM bytes per solver
	// iteration (sweep + BLAS-1 tail) at admission time.
	ModeledBytesPerIter int64 `json:"modeled_bytes_per_iter"`
}

// solveSession is one resident solver with its goroutine's lifecycle
// plumbing. All mutable fields are guarded by mu; state leaves "running"
// exactly once (guarded transitions), whichever of the session goroutine
// and a canceller moves first.
type solveSession struct {
	id           string
	matrixID     string
	method       string
	tol          float64
	maxIters     int
	rows         int
	bytesPerIter int64
	created      time.Time

	// Scheduling identity: the SLO class the session's sweeps acquire
	// gate slots under, the tenant ledger its bursts charge (nil when
	// the scheduling layer is off), and how many iterations the bucket
	// has paid for so far. charged is touched only by the session
	// goroutine.
	class   sched.Class
	acct    *tenantAccount
	charged int

	cancelOnce sync.Once
	cancel     chan struct{} // closed by requestCancel
	done       chan struct{} // closed when the goroutine exits

	mu                 sync.Mutex
	state              string
	iters              int
	residual           float64
	lambda             float64
	history            []float64
	x                  []float64
	errMsg             string
	genFirst, genLast  int
	finishedAtSequence uint64 // admission counter at finish, for oldest-finished eviction
}

func (ss *solveSession) requestCancel() {
	ss.cancelOnce.Do(func() { close(ss.cancel) })
}

// markCancelled transitions a still-running session to cancelled. The
// session goroutine observes the closed cancel channel and exits without
// overwriting the state.
func (ss *solveSession) markCancelled(seq uint64) {
	ss.requestCancel()
	ss.mu.Lock()
	if ss.state == stateRunning {
		ss.state = stateCancelled
		ss.finishedAtSequence = seq
	}
	ss.mu.Unlock()
}

const (
	stateRunning   = "running"
	stateCancelled = "cancelled"
	stateFailed    = "failed"
)

// errSessionCancelled surfaces a cancellation observed inside the
// solver's apply (a gate wait interrupted by DELETE or Close, or a fused
// batch that dropped the session's item) so the step loop can classify
// the finish as cancelled rather than failed.
var errSessionCancelled = errors.New("server: solve session cancelled")

// snapshot copies the observable state. full includes the residual
// history and (for finished sessions) the solution vector; the list
// endpoint omits both.
func (ss *solveSession) snapshot(full bool) SolveStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st := SolveStatus{
		SID: ss.id, MatrixID: ss.matrixID, Method: ss.method,
		State: ss.state, Deterministic: true,
		Iters: ss.iters, MaxIters: ss.maxIters, Tol: ss.tol,
		Residual: ss.residual, Eigenvalue: ss.lambda, Error: ss.errMsg,
		ServingGenerationFirst: ss.genFirst, ServingGenerationLast: ss.genLast,
		ModeledBytesPerIter: ss.bytesPerIter,
	}
	if full {
		st.History = append([]float64(nil), ss.history...)
		if ss.state != stateRunning && ss.x != nil {
			st.X = append([]float64(nil), ss.x...)
		}
	}
	return st
}

// symmetricMatrix caches the numeric-symmetry answer: CG admission
// requires the matrix itself to be symmetric, whatever storage family the
// footprint comparison picked to serve it. Symmetric storage with nothing
// pending is proof; a delta can break symmetry under SymCSR storage until
// recompaction demotes it, so anything else is judged in full. The answer is a property of
// the LOGICAL matrix — base plus any pending deltas — so the cache is
// keyed by the delta log's seq: a patch can break (or create) symmetry,
// and admission must judge the matrix the session will actually sweep.
// With pending deltas the check folds the log into a scratch matrix;
// recompaction resets the cache when it installs the folded base.
func (e *Entry) symmetricMatrix() bool {
	if sv := e.cur.Load(); sv != nil && sv.sym && sv.ov == nil {
		return true
	}
	// tuneMu pins (log, seq) against concurrent patches and recompactions;
	// the check itself is O(nnz) — the same order as one sweep — and CG
	// admission is rare, so holding the writer lock across it is fine.
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	l := e.log
	var seq int
	if l != nil {
		seq = l.Seq()
	}
	e.symMu.Lock()
	if e.symChecked && e.symSeq == seq {
		is := e.symIs
		e.symMu.Unlock()
		return is
	}
	e.symMu.Unlock()
	var is bool
	if l == nil || seq == 0 {
		is = e.m.IsSymmetric()
	} else {
		fm := spmv.NewMatrix(e.rows, e.cols)
		l.Fold(func(i, j int32, v float64) { _ = fm.Set(int(i), int(j), v) })
		is = fm.IsSymmetric()
	}
	e.symMu.Lock()
	e.symChecked, e.symSeq, e.symIs = true, seq, is
	e.symMu.Unlock()
	return is
}

// SolveOpts validates one solver request against the matrix id —
// registered here or sharded over the attached cluster — admits it under
// the session cap and the tenant's token bucket, and starts the session
// goroutine. Non-empty options override the request body's own
// tenant/class, making the two call styles (wire body vs typed options)
// equivalent. The returned status is the session's state at admission
// (running, iters 0); its generation fields count serving-snapshot
// promotions for a local matrix and stay 0 for a sharded one.
func (s *Server) SolveOpts(id string, req SolveRequest, opts SolveOptions) (SolveStatus, error) {
	if opts.Tenant != "" {
		req.Tenant = opts.Tenant
	}
	if opts.Class != "" {
		req.Class = opts.Class
	}
	m, err := s.lookup(id)
	if err != nil {
		return SolveStatus{}, err
	}
	sweepBytes, gen, err := m.model()
	if err != nil {
		return SolveStatus{}, err
	}
	rows, cols := m.Dims()
	if rows != cols {
		return SolveStatus{}, fmt.Errorf("server: solver sessions need a square matrix; %q is %dx%d", id, rows, cols)
	}
	if math.IsNaN(req.Tol) || math.IsInf(req.Tol, 0) || req.Tol < 0 {
		return SolveStatus{}, fmt.Errorf("server: tolerance %g is not a finite non-negative number", req.Tol)
	}
	if req.MaxIters < 0 {
		return SolveStatus{}, fmt.Errorf("server: negative step budget %d", req.MaxIters)
	}
	if req.MaxIters > MaxSolveIters {
		return SolveStatus{}, fmt.Errorf("server: step budget %d exceeds the %d cap", req.MaxIters, MaxSolveIters)
	}
	maxIters := req.MaxIters
	if maxIters == 0 {
		maxIters = DefaultSolveIters
	}
	if req.X0 != nil && len(req.X0) != rows {
		return SolveStatus{}, fmt.Errorf("server: matrix %q is %dx%d, len(x0)=%d", id, rows, cols, len(req.X0))
	}
	if !kernel.Finite(req.X0) {
		return SolveStatus{}, fmt.Errorf("server: x0 contains non-finite values")
	}
	var bytesPerIter int64
	switch req.Method {
	case "cg":
		if len(req.B) != rows {
			return SolveStatus{}, fmt.Errorf("server: matrix %q is %dx%d, len(b)=%d", id, rows, cols, len(req.B))
		}
		if !kernel.Finite(req.B) {
			return SolveStatus{}, fmt.Errorf("server: b contains non-finite values")
		}
		if !m.symmetricMatrix() {
			return SolveStatus{}, fmt.Errorf("%w: conjugate gradient needs a symmetric matrix and %q is not", ErrNotSymmetric, id)
		}
		bytesPerIter = traffic.CGIterationBytes(sweepBytes, rows)
	case "power":
		if req.B != nil {
			return SolveStatus{}, fmt.Errorf("server: power iteration takes x0 (a start vector), not b")
		}
		bytesPerIter = traffic.PowerIterationBytes(sweepBytes, rows)
	default:
		return SolveStatus{}, fmt.Errorf("server: unknown solver method %q (want cg or power)", req.Method)
	}

	class, err := s.resolveClass(req.Class)
	if err != nil {
		return SolveStatus{}, err
	}
	// Admit the session's first iteration-burst against the tenant's
	// bucket; later bursts pace inside runSolve instead of rejecting.
	chargeIters := min(solveChargeIters, maxIters)
	acct, err := s.admitSolveBurst(req.Tenant, class, bytesPerIter*int64(chargeIters))
	if err != nil {
		return SolveStatus{}, err
	}

	ss := &solveSession{
		matrixID: id, method: req.Method,
		tol: req.Tol, maxIters: maxIters, rows: rows, bytesPerIter: bytesPerIter,
		created: time.Now(),
		cancel:  make(chan struct{}), done: make(chan struct{}),
		state: stateRunning, genFirst: gen, genLast: gen,
		class: class, acct: acct, charged: chargeIters,
	}
	if err := s.registerSession(ss); err != nil {
		return SolveStatus{}, err
	}
	s.log.Info("solve session created",
		slog.String("sid", ss.id), slog.String("matrix", id),
		slog.String("method", ss.method), slog.Int("max_iters", maxIters),
		slog.Int("generation", gen))
	go s.runSolve(m, ss, &pending{cancel: ss.cancel, cost: sweepBytes}, req, maxIters)
	return ss.snapshot(true), nil
}

// admitSolveBurst charges the session's first iteration-burst against
// the tenant's bucket and records the admission in the ledgers; nil
// account (with nil error) means the scheduling layer is off.
func (s *Server) admitSolveBurst(tenant string, class sched.Class, burstBytes int64) (*tenantAccount, error) {
	sc := s.sched
	if sc == nil {
		return nil, nil
	}
	acct := sc.account(tenant)
	if acct.bucket != nil {
		if ok, retry := acct.bucket.Take(burstBytes); !ok {
			acct.rejected.Add(1)
			acct.rejectedBytes.Add(burstBytes)
			sc.classes[class].rejected.Add(1)
			if tenant == "" {
				tenant = DefaultTenant
			}
			return nil, &AdmissionError{Tenant: tenant, Cost: burstBytes, RetryAfter: retry}
		}
	}
	acct.served.Add(1)
	sc.classes[class].served.Add(1)
	sc.chargeBytes(acct, class, burstBytes)
	return acct, nil
}

// registerSession admits ss under the session cap (evicting the oldest
// finished session if needed), assigns its id, and tracks the session
// goroutine the caller is about to start.
func (s *Server) registerSession(ss *solveSession) error {
	s.sessMu.Lock()
	if s.closed {
		s.sessMu.Unlock()
		return fmt.Errorf("server: shutting down")
	}
	if len(s.sessions) >= s.cfg.MaxSessions && !s.evictFinishedLocked() {
		s.sessMu.Unlock()
		return fmt.Errorf("%w: %d resident, all running", ErrTooManySessions, s.cfg.MaxSessions)
	}
	s.sessSeq++
	ss.id = fmt.Sprintf("s%d", s.sessSeq)
	s.sessions[ss.id] = ss
	s.sessWG.Add(1)
	s.sessMu.Unlock()
	s.st.solveSessions.Add(1)
	return nil
}

// evictFinishedLocked removes the oldest finished session to admit a new
// one, reporting whether there was one. sessMu must be held.
func (s *Server) evictFinishedLocked() bool {
	var victim string
	var victimSeq uint64
	for id, ss := range s.sessions {
		ss.mu.Lock()
		running := ss.state == stateRunning
		seq := ss.finishedAtSequence
		ss.mu.Unlock()
		if running {
			continue
		}
		if victim == "" || seq < victimSeq {
			victim, victimSeq = id, seq
		}
	}
	if victim == "" {
		return false
	}
	delete(s.sessions, victim)
	return true
}

// finishSeq stamps finished sessions with a monotone order for
// oldest-finished eviction.
func (s *Server) finishSeq() uint64 { return s.sessFinishSeq.Add(1) }

// runSolve is the session goroutine: it builds the solver over the
// servable's mul of the session's item p — both resolved once, at
// creation — and steps it to a terminal state, publishing progress after
// every iteration.
func (s *Server) runSolve(m servable, ss *solveSession, p *pending, req SolveRequest, maxIters int) {
	defer s.sessWG.Done()
	defer close(ss.done)

	// sweepDur accumulates the iteration's measured sweep time and
	// sweepGen the generation that sweep actually ran — the iteration
	// trace must report the sweep's own generation, not whatever is
	// current by trace time. Step calls apply synchronously on this
	// goroutine, so plain variables suffice. Every sweep reuses the batch
	// item p; it skips tenant admission, as the session pays per burst.
	var sweepDur time.Duration
	var sweepGen int
	apply := func(y, x []float64) error {
		p.x, p.y = x, y
		if s.obs != nil {
			p.enq = time.Now()
		}
		if _, err := m.mul(s, p, ss.class, ss.id); err != nil {
			return err
		}
		if s.obs != nil {
			s.obs.stage.Observe(stageSolveSweep, p.dur)
		}
		sweepDur += p.dur
		sweepGen = p.gen
		ss.mu.Lock()
		ss.genLast = p.gen
		ss.mu.Unlock()
		return nil
	}
	opt := solve.Options{Tol: ss.tol, MaxIters: maxIters, Threads: s.cfg.Threads}

	type stepper interface {
		Step() (bool, error)
		Status() solve.Status
		History() []float64
		Residual() float64
		X() []float64
	}
	var solver stepper
	switch ss.method {
	case "cg":
		cg, err := solve.NewCG(apply, req.B, req.X0, opt)
		if err != nil {
			ss.finish(s, stateFailed, err.Error(), nil, 0, nil)
			return
		}
		solver = cg
	default: // validated to "power" at admission
		pw, err := solve.NewPower(apply, ss.rows, req.X0, opt)
		if err != nil {
			ss.finish(s, stateFailed, err.Error(), nil, 0, nil)
			return
		}
		solver = powerStepper{pw}
	}

	steps := 0
	for solver.Status() == solve.Running {
		select {
		case <-ss.cancel:
			ss.finish(s, stateCancelled, "", solver.History(), solver.Residual(), solver.X())
			return
		default:
		}
		// Burst boundary: the iterations paid for at admission (or the
		// last boundary) are spent — sleep out the tenant bucket's refill
		// for the next burst before stepping on.
		if ss.acct != nil && steps >= ss.charged && ss.charged < maxIters {
			burst := min(solveChargeIters, maxIters-ss.charged)
			burstBytes := ss.bytesPerIter * int64(burst)
			if ss.acct.bucket != nil && !ss.acct.bucket.Wait(burstBytes, ss.cancel) {
				ss.finish(s, stateCancelled, "", solver.History(), solver.Residual(), solver.X())
				return
			}
			s.sched.chargeBytes(ss.acct, ss.class, burstBytes)
			ss.charged += burst
		}
		var iterStart time.Time
		if s.obs != nil {
			iterStart = time.Now()
			sweepDur = 0
		}
		done, err := solver.Step()
		steps++
		s.st.solveIters.Add(1)
		if s.obs != nil {
			wall := time.Since(iterStart)
			s.obs.stage.Observe(stageSolveIter, wall)
			if s.obs.sampler.Sample() {
				s.obs.traceSolveIter(ss.method+"_iter", ss.matrixID, sweepGen, iterStart, sweepDur, wall)
			}
		}
		ss.publish(solver)
		if done {
			state := solver.Status().String()
			msg := ""
			if err != nil {
				if errors.Is(err, errSessionCancelled) {
					// The gate wait was interrupted by cancellation: that is
					// the session's cancelled transition, not a solver fault.
					state, msg = stateCancelled, ""
				} else {
					msg = err.Error()
				}
			}
			ss.finish(s, state, msg, solver.History(), solver.Residual(), solver.X())
			return
		}
	}
	// Admission-time convergence (zero b, or x0 already below tol).
	ss.finish(s, solver.Status().String(), "", solver.History(), solver.Residual(), solver.X())
}

// powerStepper adapts Power to the session's stepper shape (its iterate
// accessor is Vector; X returns the eigenvector estimate, and the
// session's lambda is published alongside).
type powerStepper struct{ *solve.Power }

func (p powerStepper) X() []float64 { return p.Vector() }

// appendFinite extends dst with src's new entries, stopping at the first
// non-finite value: a diverging solver fails immediately after recording
// one Inf/NaN residual, and JSON cannot carry it — the failure stays
// observable through the state and error fields, which encoding/json
// would otherwise reject wholesale (an empty 200 response).
func appendFinite(dst, src []float64) []float64 {
	for _, v := range src[min(len(dst), len(src)):] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			break
		}
		dst = append(dst, v)
	}
	return dst
}

// publish copies the solver's progress into the session under mu. Only
// finite values cross: everything here ends up in JSON responses.
func (ss *solveSession) publish(solver interface {
	History() []float64
	Residual() float64
}) {
	h := solver.History()
	r := solver.Residual()
	ss.mu.Lock()
	ss.history = appendFinite(ss.history, h)
	ss.iters = len(ss.history)
	if !math.IsNaN(r) && !math.IsInf(r, 0) {
		ss.residual = r
	}
	if p, ok := solver.(powerStepper); ok {
		if l := p.Eigenvalue(); !math.IsNaN(l) && !math.IsInf(l, 0) {
			ss.lambda = l
		}
	}
	ss.mu.Unlock()
}

// finish moves the session to a terminal state (unless a canceller beat
// it there) and freezes the result vector.
func (ss *solveSession) finish(s *Server, state, errMsg string, history []float64, residual float64, x []float64) {
	seq := s.finishSeq()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.history = appendFinite(ss.history, history)
	ss.iters = len(ss.history)
	if !math.IsNaN(residual) && !math.IsInf(residual, 0) {
		ss.residual = residual
	}
	if x != nil && kernel.Finite(x) {
		// A diverged iterate is useless and unencodable; the error field
		// carries the diagnosis instead.
		ss.x = append([]float64(nil), x...)
	}
	if ss.state != stateRunning {
		return // cancelled (or Close) got there first
	}
	ss.state = state
	ss.errMsg = errMsg
	ss.finishedAtSequence = seq
	s.log.Info("solve session finished",
		slog.String("sid", ss.id), slog.String("matrix", ss.matrixID),
		slog.String("state", state), slog.Int("iters", ss.iters),
		slog.Float64("residual", ss.residual), slog.Int("generation", ss.genLast))
}

// session looks up a resident session.
func (s *Server) session(sid string) (*solveSession, error) {
	s.sessMu.Lock()
	ss, ok := s.sessions[sid]
	s.sessMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, sid)
	}
	return ss, nil
}

// SolveStatus returns a session's state, optionally blocking up to wait
// for it to leave running.
func (s *Server) SolveStatus(sid string, wait time.Duration) (SolveStatus, error) {
	ss, err := s.session(sid)
	if err != nil {
		return SolveStatus{}, err
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-ss.done:
		case <-t.C:
		}
		t.Stop()
	}
	return ss.snapshot(true), nil
}

// CancelSolve cancels a session and removes it from the registry,
// returning its final observable state.
func (s *Server) CancelSolve(sid string) (SolveStatus, error) {
	s.sessMu.Lock()
	ss, ok := s.sessions[sid]
	if ok {
		delete(s.sessions, sid)
	}
	s.sessMu.Unlock()
	if !ok {
		return SolveStatus{}, fmt.Errorf("%w %q", ErrUnknownSession, sid)
	}
	ss.markCancelled(s.finishSeq())
	return ss.snapshot(true), nil
}

// Sessions lists the resident sessions' summaries (no history or
// solution vectors), newest first.
func (s *Server) Sessions() []SolveStatus {
	s.sessMu.Lock()
	resident := make([]*solveSession, 0, len(s.sessions))
	for _, ss := range s.sessions {
		resident = append(resident, ss)
	}
	s.sessMu.Unlock()
	sort.Slice(resident, func(i, j int) bool { return resident[i].created.After(resident[j].created) })
	out := make([]SolveStatus, len(resident))
	for i, ss := range resident {
		out[i] = ss.snapshot(false)
	}
	return out
}

// solveWaitCap bounds GET /v1/solve/{sid}?wait=… so a hostile wait cannot
// pin handler goroutines indefinitely.
const solveWaitCap = 30 * time.Second

func (s *Server) handleSolveCreate(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	st, err := s.SolveOpts(r.PathValue("id"), req, SolveOptions{})
	reply(w, http.StatusCreated, st, err)
}

func (s *Server) handleSolveGet(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if wq := r.URL.Query().Get("wait"); wq != "" {
		d, err := time.ParseDuration(wq)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q: want a non-negative duration", wq))
			return
		}
		wait = min(d, solveWaitCap)
	}
	st, err := s.SolveStatus(r.PathValue("sid"), wait)
	reply(w, http.StatusOK, st, err)
}

func (s *Server) handleSolveDelete(w http.ResponseWriter, r *http.Request) {
	st, err := s.CancelSolve(r.PathValue("sid"))
	reply(w, http.StatusOK, st, err)
}

func (s *Server) handleSolveList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Sessions())
}
