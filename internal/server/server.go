package server

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	spmv "repro"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/matrix/delta"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/traffic"
)

// Config sizes the serving subsystem.
type Config struct {
	// Tune is the tuner configuration the serving candidate set is drawn
	// from (see servingTune, which today takes its index-width policy and
	// nothing else); DefaultConfig sets DefaultTuneOptions.
	Tune spmv.TuneOptions
	// Threads is the one parallel width of a sweep: every served operator
	// is compiled into this many nonzero-balanced row parts (§4.3), which
	// each fused sweep fans out over the pool. <= 0 means GOMAXPROCS.
	Threads int
	// Workers is the sweep pool size. <= 0 means GOMAXPROCS.
	Workers int
	// MaxConcurrentSweeps bounds sweeps executing at once. <= 0 means
	// Workers.
	MaxConcurrentSweeps int
	// MaxBatch is the widest fused sweep (k requests coalesced). <= 1
	// disables batching.
	MaxBatch int
	// BatchWindow is how long a batch leader lingers for followers.
	BatchWindow time.Duration
	// Adaptive lets lone requests skip the linger when traffic is sparse
	// (see batcher). Dense traffic still coalesces.
	Adaptive bool
	// AutoSymmetric tries upper-triangle (SymCSR) storage for every
	// square registered matrix: when the symmetric compile succeeds
	// (the matrix is numerically symmetric) and its footprint beats the
	// general encoding that would otherwise stream, the matrix is served by
	// the parallel symmetric operator — half the matrix stream per sweep.
	// Its bits differ from the same matrix served general: symmetry changes
	// the summation order once, at registration, never per request. A
	// per-request "symmetric" field overrides the auto-detection either
	// way.
	AutoSymmetric bool

	// MaxBodyBytes caps HTTP request bodies (registrations and mul
	// payloads); oversized requests get 413. <= 0 means the 256 MiB
	// default. The cap also bounds coordinator-to-member shard band
	// uploads (a band frame costs 12 bytes per nonzero plus 8 per row), so
	// members of a fleet sharding very large matrices need it raised in
	// step with their band sizes.
	MaxBodyBytes int64

	// RetuneInterval enables workload-aware online re-tuning: a background
	// scanner wakes at this interval, measures each matrix's observed
	// request mix against the width its serving operator was tuned for,
	// and — past the drift threshold — re-runs the tuner with workload-
	// derived options in a worker off the hot path, promoting the
	// candidate only when it wins a modeled shadow benchmark on captured
	// request shapes (see retuner.go). <= 0 disables the scanner;
	// RetuneOnce still evaluates on demand.
	RetuneInterval time.Duration

	// RetuneDrift is the width-drift threshold in (0, 1] that triggers a
	// re-tune evaluation: 1 - min/max of tuned vs observed median width,
	// so 0.5 fires on a 2× shift. <= 0 means the 0.5 default.
	RetuneDrift float64

	// RetuneMinRequests is how many fresh requests an entry must serve
	// between re-tune evaluations — both the drift signal's sample floor
	// and the pacing that keeps rejected candidates from being recompiled
	// every scan. <= 0 means the default of 64.
	RetuneMinRequests int

	// RecompactThreshold triggers background recompaction of a patched
	// matrix once its delta overlay's modeled per-sweep stream
	// (traffic.OverlaySweepBytes) reaches this fraction of the base
	// operator's matrix stream: past that point every sweep pays more than
	// the fraction in extra bandwidth, so folding the deltas into a fresh
	// base and re-tuning amortizes after ~1/threshold sweeps. 0 means
	// DefaultRecompactThreshold; negative disables recompaction (the
	// overlay then grows until an explicit Recompact call).
	RecompactThreshold float64

	// MaxSessions caps resident solver sessions (running or finished but
	// not yet collected). At the cap, creating a session first evicts the
	// oldest finished one; when every resident session is still running
	// the creation is rejected with ErrTooManySessions (429). <= 0 means
	// DefaultMaxSessions.
	MaxSessions int

	// ObsSample turns on the observability layer and sets its trace
	// sampling: 1 in ObsSample requests gets a full span trace (queue →
	// interleave → execute → gather; per-iteration spans for solver
	// sessions) into the trace ring behind GET /v1/traces. Latency
	// histograms and roofline attribution record every request while the
	// layer is on — they are a few atomic adds each. 0 disables the whole
	// layer: the hot path then takes no timestamps at all (the
	// benchsmoke overhead comparison's baseline). DefaultConfig uses
	// DefaultObsSample.
	ObsSample int

	// ObsRing is the trace ring capacity (most recent sampled traces
	// kept). <= 0 means DefaultObsRing.
	ObsRing int

	// RooflineGBs is the sustained DRAM bandwidth reference (GB/s) the
	// roofline attribution divides achieved bandwidth by. <= 0 means the
	// paper's AMD X2 sustained socket bandwidth (Table 4: ~6.6 GB/s).
	RooflineGBs float64

	// Sched configures SLO-aware multi-tenant admission and scheduling
	// (see internal/sched): per-tenant token buckets denominated in
	// modeled bytes/s gate admission with 429 + Retry-After, and the
	// priority gate orders sweep execution by SLO class with
	// shortest-job-first and an aging escalator. The zero value disables
	// the whole layer — requests run FIFO and unmetered, exactly as
	// before the layer existed.
	Sched sched.Config

	// Logger receives the server's structured logs (request access lines,
	// re-tune decisions, solver session lifecycle). nil discards.
	Logger *slog.Logger
}

// DefaultRetuneDrift and DefaultRetuneMinRequests back the zero values of
// the re-tuning knobs.
const (
	DefaultRetuneDrift       = 0.5
	DefaultRetuneMinRequests = 64
)

// DefaultRecompactThreshold backs Config.RecompactThreshold's zero value:
// recompact once the overlay stream costs every sweep 10% extra bandwidth
// over the base matrix stream.
const DefaultRecompactThreshold = 0.10

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is unset: 256 MiB, sized to admit any single-node
// upload of the paper's full-scale suite twins (~3M nonzeros ≈ 225 MB as
// MatrixMarket) while still bounding a hostile request's memory.
const DefaultMaxBodyBytes = 256 << 20

// DefaultConfig serves with GOMAXPROCS row parts and workers, up to 8-wide
// fusion, a 200µs linger with adaptive fallback, index narrowing open to
// the re-tuner, and symmetric storage auto-detection.
func DefaultConfig() Config {
	return Config{
		Tune:          spmv.DefaultTuneOptions(),
		MaxBatch:      8,
		BatchWindow:   200 * time.Microsecond,
		Adaptive:      true,
		AutoSymmetric: true,
		ObsSample:     DefaultObsSample,
	}
}

// Server is the SpMV serving subsystem: registry + batchers + sweep pool.
type Server struct {
	cfg     Config
	reg     *Registry
	pool    *Pool
	st      stats
	obs     *obsState   // nil when Config.ObsSample == 0
	sched   *schedState // nil when Config.Sched is inactive
	log     *slog.Logger
	started time.Time

	mu       sync.Mutex
	batchers map[batcherKey]*batcher

	// cluster, when attached, makes this server the front of a sharded
	// fleet: registrations with shards >= 2 and Muls against sharded ids
	// route through it. Set once before serving (AttachCluster).
	cluster *Cluster

	// retuneStop/retuneDone bracket the background re-tune scanner's
	// lifetime (nil when RetuneInterval <= 0).
	retuneStop chan struct{}
	retuneDone chan struct{}

	// Solver sessions (see solve.go): server-resident CG / power-iteration
	// state, keyed by session id. sessWG tracks the session goroutines so
	// Close can drain them before stopping the pool.
	sessMu        sync.Mutex
	sessions      map[string]*solveSession
	sessSeq       int
	closed        bool
	sessWG        sync.WaitGroup
	sessFinishSeq atomic.Uint64
}

// New starts a server. Call Close to stop its workers.
func New(cfg Config) *Server {
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RetuneDrift <= 0 {
		cfg.RetuneDrift = DefaultRetuneDrift
	}
	if cfg.RetuneMinRequests <= 0 {
		cfg.RetuneMinRequests = DefaultRetuneMinRequests
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.RecompactThreshold == 0 {
		cfg.RecompactThreshold = DefaultRecompactThreshold
	}
	if cfg.RooflineGBs <= 0 {
		// The paper's reference machine: AMD X2 sustained socket bandwidth
		// (Table 4), the bound the modeled traffic is calibrated against.
		am := machine.AMDX2()
		cfg.RooflineGBs = am.MemCtrl.PerSocketGBs * am.SustainedBWFracSocket
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	// The gate owns the same slot count the pool's sweep semaphore
	// enforces, so the gate is the single queueing point: a job that
	// holds a gate slot never blocks again at the pool.
	gateSlots := cfg.MaxConcurrentSweeps
	if gateSlots <= 0 {
		gateSlots = cfg.Workers
	}
	s := &Server{
		cfg: cfg, pool: NewPool(cfg.Workers, cfg.MaxConcurrentSweeps),
		batchers: make(map[batcherKey]*batcher),
		sessions: make(map[string]*solveSession),
		obs:      newObsState(cfg),
		sched:    newSchedState(cfg.Sched, gateSlots),
		log:      logger,
		started:  time.Now(),
	}
	s.reg = NewRegistry(&s.st)
	if cfg.RetuneInterval > 0 {
		s.retuneStop = make(chan struct{})
		s.retuneDone = make(chan struct{})
		go s.retuneLoop()
	}
	return s
}

// Close stops the re-tune scanner, cancels and drains solver sessions,
// and stops the worker pool. In-flight requests must have drained.
func (s *Server) Close() {
	if s.retuneStop != nil {
		close(s.retuneStop)
		<-s.retuneDone
		s.retuneStop = nil
	}
	// Refuse new sessions, cancel the running ones, and wait for their
	// goroutines — they schedule sweeps, so the pool must outlive them.
	s.sessMu.Lock()
	s.closed = true
	for _, sess := range s.sessions {
		sess.requestCancel()
	}
	s.sessMu.Unlock()
	s.sessWG.Wait()
	s.pool.Close()
}

// Registry exposes the underlying registry (read-mostly callers: List/Get).
func (s *Server) Registry() *Registry { return s.reg }

// AttachCluster makes the server front a shard coordinator. Call it once,
// before the server starts taking requests: the HTTP layer then accepts
// sharded registrations ("shards": K) and routes Muls against sharded ids
// through the coordinator, and /v1/stats grows the cluster rollup.
func (s *Server) AttachCluster(c *Cluster) { s.cluster = c }

// Cluster returns the attached shard coordinator, or nil.
func (s *Server) Cluster() *Cluster { return s.cluster }

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats { return s.st.snapshot() }

// MatrixInfo describes one registered, tuned matrix.
type MatrixInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name,omitempty"`
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	NNZ         int64   `json:"nnz"`
	Kernel      string  `json:"kernel"`
	Symmetric   bool    `json:"symmetric,omitempty"` // served by the symmetric operator
	Footprint   int64   `json:"footprint_bytes"`
	Baseline    int64   `json:"baseline_bytes"`
	Savings     float64 `json:"savings"`
	Threads     int     `json:"threads"`
	Shards      int     `json:"shards"`
	Replicas    int     `json:"replicas,omitempty"` // > 0 only for cluster-sharded matrices
	SweepBytes  int64   `json:"sweep_bytes"`        // modeled DRAM bytes per single-RHS sweep
	MatrixBytes int64   `json:"matrix_bytes"`       // matrix-stream share of SweepBytes
	// Generation counts serving-snapshot promotions (re-tunes and
	// recompactions); mutable-matrix state describes the live overlay.
	Generation   int   `json:"generation"`
	DeltaSeq     int   `json:"delta_seq,omitempty"`     // ops the serving overlay reflects
	OverlayRows  int   `json:"overlay_rows,omitempty"`  // dirty rows sweeps overwrite
	OverlayBytes int64 `json:"overlay_bytes,omitempty"` // modeled per-sweep overlay stream
}

func (e *Entry) listing() MatrixInfo {
	sv := e.cur.Load()
	if sv == nil {
		return MatrixInfo{ID: e.ID, Name: e.Name, Rows: e.rows, Cols: e.cols, NNZ: e.nnz.Load()}
	}
	info := MatrixInfo{
		ID: e.ID, Name: e.Name, Rows: e.rows, Cols: e.cols, NNZ: e.nnz.Load(),
		Kernel: sv.op.KernelName(), Symmetric: sv.sym,
		Footprint: sv.op.FootprintBytes(),
		Baseline:  sv.op.BaselineBytes(), Savings: sv.op.Savings(),
		Threads: sv.op.Threads(), Shards: sv.op.Threads(),
		SweepBytes:  sv.matrixBytes + sv.sourceBytes + sv.destBytes,
		MatrixBytes: sv.matrixBytes,
		Generation:  sv.gen,
	}
	if sv.ov != nil {
		info.DeltaSeq = sv.ov.Seq()
		info.OverlayRows = sv.ov.DirtyRows()
		info.OverlayBytes = sv.ovBytes
	}
	return info
}

// RegisterOptions modifies one registration.
type RegisterOptions struct {
	// Symmetric selects the matrix's storage family. nil defers to
	// Config.AutoSymmetric (try symmetric, fall back to general when the
	// matrix is not symmetric or the general plan is smaller); a true
	// pointer requires symmetric storage and fails with ErrNotSymmetric
	// when the matrix is not numerically symmetric; a false pointer pins
	// general storage — the setting shard members use for row bands, so
	// a fleet's bits stay invariant to topology.
	Symmetric *bool
}

// Register ingests a matrix, compiles the operator that will serve it
// (see prepare) and publishes its first serving snapshot. The empty id asks
// the registry to generate one.
func (s *Server) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	return s.RegisterOpts(id, name, m, RegisterOptions{})
}

// RegisterOpts is Register with per-registration options.
func (s *Server) RegisterOpts(id, name string, m *spmv.Matrix, opts RegisterOptions) (MatrixInfo, error) {
	e, err := s.reg.Register(id, name, m)
	if err != nil {
		return MatrixInfo{}, err
	}
	if err := s.prepare(e, opts); err != nil {
		// Back the entry out: a rejected registration (e.g. symmetric
		// required for an asymmetric matrix) must not burn the id or
		// leave a half-initialized entry in listings.
		s.reg.remove(e.ID)
		return MatrixInfo{}, err
	}
	return e.listing(), nil
}

// RegisterSuite generates a structural twin of one of the paper's Table 3
// matrices and registers it.
func (s *Server) RegisterSuite(id, suite string, scale float64, seed int64) (MatrixInfo, error) {
	m, err := spmv.GenerateSuite(suite, scale, seed)
	if err != nil {
		return MatrixInfo{}, err
	}
	return s.Register(id, suite, m)
}

// prepare compiles the operator that will serve the entry and publishes
// its first serving snapshot: what is built here is what every sweep
// streams. The storage family comes from opts.Symmetric (see
// RegisterOptions): when symmetric storage is wanted, the parallel
// symmetric operator is compiled and — in auto mode — kept only if its
// footprint beats the general encoding that would stream instead, the same
// footprint-minimizing rule the §4.2 heuristic applies between formats
// (general wins ties). The comparison's loser is unreachable once the
// snapshot is built.
func (s *Server) prepare(e *Entry, opts RegisterOptions) error {
	rows, cols := e.Dims()
	wantSym := s.cfg.AutoSymmetric
	required := false
	if opts.Symmetric != nil {
		wantSym, required = *opts.Symmetric, *opts.Symmetric
	}
	var def *spmv.Operator
	if wantSym {
		if rows != cols {
			if required {
				return fmt.Errorf("%w: matrix is %dx%d", ErrNotSymmetric, rows, cols)
			}
		} else {
			op, err := spmv.CompileSymmetricParallel(e.m, s.cfg.Threads)
			if err != nil {
				if required {
					return fmt.Errorf("%w: %v", ErrNotSymmetric, err)
				}
			} else {
				s.st.compiles.Add(1)
				def = op
			}
		}
	}
	if def == nil || !required {
		op, err := spmv.CompileParallel(e.m, s.servingTune(1, false), s.cfg.Threads, 1)
		if err != nil {
			return err
		}
		s.st.compiles.Add(1)
		if def == nil || op.FootprintBytes() <= def.FootprintBytes() {
			def = op
		}
	}
	sv, err := newServing(def, 0, 1, nil)
	if err != nil {
		return err
	}
	e.cur.Store(sv)
	return nil
}

// servingTune is the serving candidate set: the tuner options every served
// general operator is compiled with, at registration, recompaction and
// re-tune alike. It admits the encodings whose every body sums each row's
// rounded products in ascending column order into one accumulator that
// starts at +0 — the order every width, index size, thread count and shard
// topology reproduces bit for bit: row-partitioned CSR, and BCSR (with
// Config.Tune.RegisterBlock), whose fill adds exact zeros. Cache blocking
// and BCOO reassociate the row sums and stay out. BCSR is limited to tiles
// of two or more rows: a width-1 sweep, every lone request and solver
// iteration, runs one dependent add chain per row, so a 1×c tile's smaller
// stream buys nothing and its fill lengthens the chain (the LP twin's
// best, 1×2/16, streams 0.84x CSR32's bytes and ran 1.45–1.6x slower),
// while an r×c tile runs r chains at once (the Cantilever twin's 4×4
// streams 0.67x and runs in about 0.65x the time). width is the fused
// width the encoding is tuned for. narrow opens the index width (to
// Config.Tune.ReduceIndices): the re-tuner's candidates narrow,
// registration and recompaction do not — were they to, every candidate
// would equal its incumbent and the re-tuner would have nothing to promote.
func (s *Server) servingTune(width int, narrow bool) spmv.TuneOptions {
	return spmv.TuneOptions{
		VectorWidth:   width,
		RegisterBlock: s.cfg.Tune.RegisterBlock,
		MinBlockRows:  2,
		ReduceIndices: narrow && s.cfg.Tune.ReduceIndices,
	}
}

// newServing builds the serving snapshot every promoter publishes —
// registration, re-tune promotion and recompaction differ only in the
// operator, generation, tuned width and overlay they hand it. General and
// symmetric operators alike are swept through their wide multi-RHS views
// (Operator.WideMulti) and accounted at WideTraffic: the bytes of the one
// resident encoding, which is what MatrixInfo reports as both footprint and
// matrix stream. Every snapshot starts a fresh roofline accumulator: a
// generation's achieved bandwidth is measured on its own sweeps.
func newServing(op *spmv.Operator, gen, width int, ov *delta.Overlay) (*serving, error) {
	tr, err := op.WideTraffic(spmv.TrafficOptions{})
	if err != nil {
		return nil, err
	}
	sv := &serving{
		op: op, sym: op.Symmetric(), width: width, gen: gen,
		matrixBytes: tr.MatrixBytes, sourceBytes: tr.SourceBytes, destBytes: tr.DestBytes,
		roof: new(obs.Roofline),
	}
	sv.setOverlay(ov)
	return sv, nil
}

// MulOpts computes y = A·x for the matrix id — registered here or sharded
// over the attached cluster — under the request options: the tenant's
// token bucket admits or rejects the
// request (ErrAdmissionLimited carries the retry estimate), the SLO
// class orders its sweep at the priority gate, and an expired deadline
// fails it with ErrDeadlineExceeded instead of executing. Concurrent
// same-class calls against the same matrix may be coalesced into one
// fused multi-RHS sweep; results are identical to independent execution
// (the kernels are deterministic and each request keeps its own vector
// slot).
func (s *Server) MulOpts(id string, x []float64, opts MulOptions) ([]float64, error) {
	return s.mulOpts(id, x, opts, nil)
}

// errNonFiniteX refuses a Mul whose x holds a NaN or ±Inf — in-process,
// JSON, frames or sharded alike: such a value would meet the blocked
// kernels' explicit zero fill as 0·Inf = NaN where CSR has no term at
// all, and the bitwise contract would depend on the encoding. The scan
// runs where x is streamed anyway (executeBatch's interleave; the sharded
// mul before its fan-out), not ahead of batcher admission: a per-caller
// pass over x there spreads a burst's arrivals past the linger window and
// costs fused traffic a fifth of its batch width.
var errNonFiniteX = fmt.Errorf("%w: x has a NaN or infinite element", ErrInvalidArgument)

// mulSpan is where a served Mul's stage timeline begins (batcher
// admission) and ends (results handed back): what the HTTP handler needs
// to cut decode and encode stages that tile its endpoint latency. Both
// stay zero when observability is off or the request failed; sent also
// when a cluster served it, and the handler then cuts no codec stages.
type mulSpan struct{ enq, sent time.Time }

// mulOpts is MulOpts reporting the request's stage span into a non-nil
// span. It is the one front door of every Mul, local or sharded: shape,
// class, tenant admission, deadline stamp, and afterwards the ledger and
// latency accounting happen here; only the execution in between is the
// servable's.
func (s *Server) mulOpts(id string, x []float64, opts MulOptions, span *mulSpan) ([]float64, error) {
	m, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if rows, cols := m.Dims(); len(x) != cols {
		return nil, fmt.Errorf("server: matrix %q is %dx%d, len(x)=%d", id, rows, cols, len(x))
	}
	// The admission cost is the request's single-RHS modeled sweep bytes.
	// Fusion makes the actual cost cheaper (the matrix streams once per
	// batch), so the buckets meter the demand a tenant presents, not the
	// discount coalescing happens to find.
	cost, _, err := m.model()
	if err != nil {
		return nil, err
	}
	class, err := s.resolveClass(opts.Class)
	if err != nil {
		return nil, err
	}
	p := &pending{x: x, cost: cost}
	if sc := s.sched; sc != nil {
		p.acct, err = sc.admit(opts.Tenant, class, p.cost)
		if err != nil {
			return nil, err
		}
	}
	if opts.Deadline > 0 {
		p.deadline = time.Now().Add(opts.Deadline)
	}
	s.st.requests.Add(1)
	if s.obs != nil {
		p.enq = time.Now()
		p.traced = s.obs.sampler.Sample()
	}
	y, err := m.mul(s, p, class, opts.Affinity)
	if err == nil {
		if sc := s.sched; sc != nil && p.acct != nil {
			sc.complete(p.acct, class, p.cost)
		}
	} else if s.sched != nil && errors.Is(err, ErrDeadlineExceeded) {
		s.sched.classes[class].expired.Add(1)
	} else if p.acct != nil && p.acct.bucket != nil && errors.Is(err, ErrInvalidArgument) {
		// A refused x ran nothing; the scan that found it only happens
		// after admission (see errNonFiniteX), so hand the tokens back.
		p.acct.bucket.Refund(p.cost)
	}
	if s.obs != nil {
		lat := time.Since(p.enq)
		if err == nil {
			s.obs.matrix.Observe(id, lat)
			if span != nil {
				span.enq, span.sent = p.enq, p.sent
			}
		}
		// Class latency records failures too (a deadline miss IS the
		// class's latency story), and independently of scheduling, so a
		// FIFO server still reports per-class percentiles to compare.
		s.obs.class.Observe(class.String(), lat)
	}
	return y, err
}

// batcherKey separates batchers by matrix and SLO class: a batch is a
// single scheduling unit at the gate, so mixing classes inside one would
// let bulk work ride a latency batch's priority (or worse, drag a
// latency request behind a bulk batch).
type batcherKey struct {
	id    string
	class sched.Class
}

func (s *Server) batcherFor(e *Entry, class sched.Class) *batcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := batcherKey{id: e.ID, class: class}
	b, ok := s.batchers[key]
	if !ok {
		b = newBatcher(s.cfg.MaxBatch, s.cfg.BatchWindow, s.cfg.Adaptive,
			func(reqs []*pending) { s.executeBatch(e, class, reqs) })
		s.batchers[key] = b
	}
	return b
}

// recordSweep accounts one executed sweep in the global counters and the
// entry's workload observation (the re-tuner's drift signal).
func (s *Server) recordSweep(e *Entry, sv *serving, width int) {
	s.st.recordSweep(width, sv.matrixBytes, sv.sourceBytes, sv.destBytes)
	if sv.ovBytes > 0 {
		// The overlay stream is charged once per sweep, whatever the fused
		// width — the scan runs once over the block, like the matrix stream.
		s.st.overlayBytes.Add(sv.ovBytes)
	}
	e.work.record(width)
}

// executeBatch runs one closed batch as a multi-RHS sweep fanned out over
// the pool. A width-1 batch takes the same path as any other (so lone and
// fused requests produce identical bits). The whole batch runs on one
// serving snapshot loaded up front, so a concurrent re-tune promotion
// never mixes operators within a sweep — in-flight sweeps drain on the
// snapshot they started with.
//
// When the priority gate is on, the batch first acquires an execution
// slot under its SLO class and total modeled bytes — this wait, not the
// pool's sweep semaphore, is where cross-class ordering happens. Requests
// whose deadline expired while the batch waited are failed here, after
// the wait and before the sweep, so a saturated server sheds exactly the
// work that can no longer meet its SLO.
func (s *Server) executeBatch(e *Entry, class sched.Class, reqs []*pending) {
	// One snapshot load for the entire batch: gate admission is priced on
	// the same generation the sweep streams, so a re-tune promotion racing
	// the batch can't charge the gate for one operator's bytes and then
	// run another (the torn-generation class snapshotonce vets statically).
	sv := e.cur.Load()
	if sc := s.sched; sc != nil && sc.gate != nil && sv != nil {
		bytes := sweepModeledBytes(sv.matrixBytes, sv.sourceBytes, sv.destBytes, len(reqs)) + sv.ovBytes
		sc.gate.Acquire(class, bytes, nil)
		defer sc.gate.Release()
	}
	// The batch is executing: its bytes leave the tenants' queued ledgers,
	// and deadline-expired requests fail instead of running.
	live := reqs[:0]
	for _, p := range reqs {
		if p.acct != nil {
			p.acct.queuedBytes.Add(-p.cost)
		}
		if !p.deadline.IsZero() && time.Now().After(p.deadline) {
			p.ch <- mulResult{err: fmt.Errorf("%w: request expired while queued", ErrDeadlineExceeded)}
			continue
		}
		live = append(live, p)
	}
	reqs = live
	if len(reqs) == 0 {
		return
	}
	width := len(reqs)
	o := s.obs
	var execStart time.Time // batch formation begins; closes every queue span
	if o != nil {
		execStart = time.Now()
	}
	fail := func(err error) {
		for _, p := range reqs {
			p.ch <- mulResult{err: err}
		}
	}
	if sv == nil {
		fail(fmt.Errorf("server: matrix %q is still compiling", e.ID))
		return
	}
	if width == 1 && !finiteVec(reqs[0].x) { // wider batches check while they interleave
		fail(errNonFiniteX)
		return
	}
	// At width 1 the interleaved block IS the request's x (the kernels and
	// the overlay pass only read it) and the sweep accumulates straight into
	// the zeroed result vector — no copy in, no copy out. Wider batches
	// interleave into pooled scratch: xBlock[j*width+v] = x_v[j]. The blocks
	// are recycled across sweeps, so the hot path's only allocations are
	// the result vectors handed back to callers. j stays the outer loop so
	// the big block is written sequentially (one pass) while the k inputs
	// stream.
	ys := make([][]float64, width)
	var xBlock, yBlock []float64
	var nonFinite []bool // set only when some request's x holds a NaN or ±Inf
	if width == 1 {
		ys[0] = make([]float64, e.rows)
		xBlock, yBlock = reqs[0].x, ys[0]
	} else {
		buf := e.getBuf(width)
		defer e.putBuf(buf)
		xs := make([][]float64, width)
		for i, p := range reqs {
			xs[i] = p.x
		}
		xBlock = buf.x[:e.cols*width]
		var carry uint64
		for j := 0; j < e.cols; j++ {
			base := j * width
			for v := range xs {
				d := xs[v][j]
				xBlock[base+v] = d
				carry |= nonFiniteCarry(d)
			}
		}
		if carry>>63 != 0 {
			// Lanes are independent, so the sweep still serves the finite
			// requests; the others get the error instead of their lane.
			nonFinite = make([]bool, width)
			for v, x := range xs {
				nonFinite[v] = !finiteVec(x)
			}
		}
		yBlock = buf.y[:e.rows*width]
		clear(yBlock)
	}

	var interDone time.Time // batch formed; the sweep itself starts here
	if o != nil {
		interDone = time.Now()
	}
	if err := s.runFused(sv, yBlock, xBlock, width); err != nil {
		fail(err)
		return
	}
	var execDone time.Time
	if o != nil {
		execDone = time.Now()
		sv.roof.Record(execDone.Sub(interDone),
			sweepModeledBytes(sv.matrixBytes, sv.sourceBytes, sv.destBytes, width)+sv.ovBytes)
	}
	s.recordSweep(e, sv, width)
	if width > 1 {
		// Deinterleave with one sequential pass over the block, into
		// result vectors allocated only now: still cache-warm when written.
		for v := range ys {
			ys[v] = make([]float64, e.rows)
		}
		for j := 0; j < e.rows; j++ {
			base := j * width
			for v := range ys {
				ys[v][j] = yBlock[base+v]
			}
		}
	}
	var sent time.Time // results ready; stamped before delivery so each requester can read it
	if o != nil {
		sent = time.Now()
	}
	for v, p := range reqs {
		p.sent = sent
		if nonFinite != nil && nonFinite[v] {
			p.ch <- mulResult{err: errNonFiniteX}
			continue
		}
		p.ch <- mulResult{y: ys[v]}
	}
	if o != nil {
		for _, p := range reqs {
			o.stage.Observe(stageQueue, execStart.Sub(p.enq))
		}
		// Batch-level stages are one measurement each: the work is shared
		// across the whole batch, and per-request copies would overweight
		// wide batches in the stage histograms.
		o.stage.Observe(stageInterleave, interDone.Sub(execStart))
		o.stage.Observe(stageExecute, execDone.Sub(interDone))
		o.stage.Observe(stageGather, sent.Sub(execDone))
		for _, p := range reqs {
			if p.traced {
				o.traceMul(e.ID, sv.gen, width, p.enq, execStart, interDone, execDone, sent)
			}
		}
	}
}

// setOverlay installs a delta overlay (nil for none) and its modeled
// per-sweep stream on a snapshot that is not published yet.
func (sv *serving) setOverlay(ov *delta.Overlay) {
	sv.ov, sv.ovBytes = ov, 0
	if ov != nil {
		sv.ovBytes = traffic.OverlaySweepBytes(ov.DirtyRows(), ov.Entries())
	}
}

// runFused executes one fused sweep of the snapshot over interleaved
// width-k blocks: the operator's wide view for that width (cached inside
// the operator, so fetching it is cheap after first use) schedules its row
// parts — or the symmetric kernel its segment tasks — through the worker
// pool, and the snapshot's delta overlay (if any) is applied after the
// base pass: each dirty row's slots are overwritten with the row's
// canonical merged content, making the result bitwise equal to a
// from-scratch rebuild (see kernel.OverlayRows). Both the batcher's batches
// and the solver sessions' per-iteration sweeps run through here, so they
// share the same concurrency bounds and the same bits.
func (s *Server) runFused(sv *serving, yBlock, xBlock []float64, width int) error {
	mo, err := sv.op.WideMulti(width)
	if err != nil {
		return err
	}
	if err := mo.MulAddBlockExec(yBlock, xBlock, s.pool.RunSweep); err != nil {
		return err
	}
	if sv.ov == nil {
		return nil
	}
	// Serial overwrite after the parallel base pass: dirty rows are a
	// small fraction of the matrix by construction (recompaction folds
	// the overlay before it grows past a threshold share of the base
	// stream), and row independence means no ordering races to manage.
	return kernel.OverlayRows(yBlock, xBlock, width, sv.ov.Rows())
}
