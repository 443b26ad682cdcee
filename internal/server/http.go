package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	spmv "repro"
	"repro/internal/obs"
)

// registerRequest is the body of POST /v1/matrices. Exactly one matrix
// source must be provided — a Table 3 suite twin, explicit COO entries, or
// an inline MatrixMarket document; a request naming more than one is
// rejected with 400. Shards >= 2 asks the attached shard coordinator to
// split the matrix into that many nonzero-balanced row bands across the
// cluster's member nodes.
type registerRequest struct {
	ID     string `json:"id,omitempty"`
	Name   string `json:"name,omitempty"`
	Shards int    `json:"shards,omitempty"`

	// Symmetric selects the storage family: true requires upper-triangle
	// (SymCSR) storage and fails with 400 when the matrix is not
	// numerically symmetric; false pins general storage; omitted takes
	// upper-triangle storage where it is strictly smaller than the general
	// encoding (servingTune). Sharded registrations cannot
	// honor true — row bands are rectangular and always stored general
	// (keeping sharded bits identical to general single-node serving) —
	// so "symmetric": true with shards >= 2 is rejected with 400 rather
	// than silently ignored.
	Symmetric *bool `json:"symmetric,omitempty"`

	// Suite twin generation.
	Suite string  `json:"suite,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// Explicit entries.
	Rows    int          `json:"rows,omitempty"`
	Cols    int          `json:"cols,omitempty"`
	Entries [][3]float64 `json:"entries,omitempty"` // [i, j, value]

	// Inline MatrixMarket document.
	MatrixMarket string `json:"matrix_market,omitempty"`
}

type mulRequest struct {
	X []float64 `json:"x"`
	// Tenant and Class are the request's admission identity (empty means
	// the default tenant / the server's default class); DeadlineMS bounds
	// its time in the serving layer in milliseconds (0 means none). See
	// MulOptions.
	Tenant     string `json:"tenant,omitempty"`
	Class      string `json:"class,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	// Affinity is the sharded-routing affinity key (MulOptions.Affinity);
	// ignored for locally served matrices.
	Affinity string `json:"affinity,omitempty"`
}

type mulResponse struct {
	Y []float64 `json:"y"`
}

// errorBody is the uniform machine-readable error payload every handler
// returns: a stable snake_case code (mapped from the server's sentinel
// errors, or from the status class when no sentinel applies) plus the
// human-readable message. Clients branch on code, humans read message.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Admission rejections carry their structured details so clients can
	// reconstruct the AdmissionError faithfully: the tenant whose bucket
	// refused, and the server's refill estimate at full resolution (the
	// Retry-After header rounds up to whole seconds).
	Tenant       string  `json:"tenant,omitempty"`
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

// errorCode maps an error (by sentinel classification, see errorTable)
// and its HTTP status to the envelope's stable code string.
func errorCode(status int, err error) string {
	for _, row := range errorTable {
		if errors.Is(err, row.err) {
			return row.code
		}
	}
	if code, ok := codeByStatus[status]; ok {
		return code
	}
	return "bad_request"
}

// codeByStatus is the envelope code of an error no sentinel classifies.
var codeByStatus = map[int]string{
	http.StatusNotFound: "not_found", http.StatusMethodNotAllowed: "method_not_allowed",
	http.StatusConflict: "conflict", http.StatusRequestEntityTooLarge: "payload_too_large",
	http.StatusTooManyRequests: "too_many_requests", http.StatusBadGateway: "bad_gateway",
	http.StatusGatewayTimeout: "gateway_timeout", http.StatusInternalServerError: "internal",
}

// writeFailure answers a failed API call with the status errorTable
// gives its error. An AdmissionError's refill estimate also goes out as
// the standard Retry-After header (whole seconds, minimum 1).
func writeFailure(w http.ResponseWriter, err error) {
	var ae *AdmissionError
	if errors.As(err, &ae) {
		secs := max(int64(math.Ceil(ae.RetryAfter.Seconds())), 1)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeError(w, statusOf(err), err)
}

// reply answers one API call: v as JSON under code, or the call's failure.
func reply(w http.ResponseWriter, code int, v any, err error) {
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, code, v)
}

// Handler returns the HTTP API of the serving subsystem:
//
//	POST /v1/matrices             register a matrix (suite | entries | matrix_market; optional shards), or a band frame
//	GET  /v1/matrices             list registered matrices (local and sharded)
//	PATCH /v1/matrices/{id}       apply a batch of COO deltas (set | add | del)
//	DELETE /v1/matrices/{id}      tear a matrix down (drains its solver sessions)
//	POST /v1/matrices/{id}/mul    compute y = A·x (coalesced with concurrent calls); JSON or binary vector frames
//	GET  /v1/matrices/{id}/tuning serving decision: generation, kernel, roofline, recompaction log
//	POST /v1/matrices/{id}/solve  start a server-resident solver session (cg | power)
//	GET  /v1/solve                list resident solver sessions
//	GET  /v1/solve/{sid}          session state + residual history (?wait=dur blocks until done)
//	DELETE /v1/solve/{sid}        cancel and remove a session
//	GET  /v1/stats                JSON counter snapshot + latency percentiles (+ cluster rollup)
//	GET  /v1/cluster              shard topology: members and sharded matrices
//	GET  /v1/traces               sampled request traces (?format=chrome for trace_event JSON)
//	GET  /v1/healthz              liveness: status, uptime, matrix count
//	GET  /v1/buildinfo            module path, version, Go version, VCS revision
//	GET  /metrics                 Prometheus text exposition: counters, gauges, latency histograms
//
// Every route is wrapped by the instrumentation middleware: request ids,
// structured access logs, and per-endpoint latency histograms. Every
// error response carries the uniform envelope {"error":{"code","message"}}:
// requests matching no path are a JSON 404, and known paths hit with a
// method they don't serve are a JSON 405 with an Allow header (the
// registered catch-all would otherwise swallow the mux's native 405).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleNotFound)
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.method+" "+rt.pattern, rt.handler)
	}
	return s.instrument(mux)
}

// route is one method+pattern binding of the API. The table drives both
// the mux registration and the catch-all's 405 detection — a route added
// here automatically answers 405 (not 404) when hit with the wrong
// method.
type route struct {
	method  string
	pattern string // ServeMux path pattern ({x} wildcards)
	handler http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{http.MethodPost, "/v1/matrices", s.handleRegister},
		{http.MethodGet, "/v1/matrices", s.handleList},
		{http.MethodPatch, "/v1/matrices/{id}", s.handlePatchMatrix},
		{http.MethodDelete, "/v1/matrices/{id}", s.handleDeleteMatrix},
		{http.MethodPost, "/v1/matrices/{id}/mul", s.handleMul},
		{http.MethodGet, "/v1/matrices/{id}/tuning", s.handleTuning},
		{http.MethodPost, "/v1/matrices/{id}/solve", s.handleSolveCreate},
		{http.MethodGet, "/v1/solve", s.handleSolveList},
		{http.MethodGet, "/v1/solve/{sid}", s.handleSolveGet},
		{http.MethodDelete, "/v1/solve/{sid}", s.handleSolveDelete},
		{http.MethodGet, "/v1/stats", s.handleStats},
		{http.MethodGet, "/v1/cluster", s.handleCluster},
		{http.MethodGet, "/v1/traces", s.handleTraces},
		{http.MethodGet, "/v1/healthz", s.handleHealthz},
		{http.MethodGet, "/v1/buildinfo", s.handleBuildinfo},
		{http.MethodGet, "/metrics", s.handleMetrics},
	}
}

// writeJSON marshals before it commits the status line: a value JSON
// cannot carry (a y that overflowed to ±Inf) becomes an enveloped 500
// instead of a 200 with an empty body. The bytes are json.Encoder's — the
// document plus a newline — so JSON clients see what they always saw.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("response is not representable as JSON: %w (vectors can be requested as %s)", err, mediaF64LE))
		return
	}
	w.Header().Set("Content-Type", mediaJSON)
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n')) // a failed write means the client left; nobody to tell
}

// writeFrame answers with v as one vector frame, written from v's memory.
func writeFrame(w http.ResponseWriter, v []float64) {
	b := vecBytes(v)
	w.Header().Set("Content-Type", mediaF64LE)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // as in writeJSON
}

func writeError(w http.ResponseWriter, code int, err error) {
	body := errorBody{
		Code:    errorCode(code, err),
		Message: err.Error(),
	}
	var ae *AdmissionError
	if errors.As(err, &ae) {
		body.Tenant = ae.Tenant
		body.RetryAfterMS = float64(ae.RetryAfter) / float64(time.Millisecond)
	}
	writeJSON(w, code, errorResponse{Error: body})
}

// handleNotFound is the catch-all for requests matching no route, so
// even a typo'd path gets the JSON error envelope rather than the text
// default. Registering a catch-all suppresses the mux's native 405
// handling, so the catch-all reconstructs it from the route table: a
// known path hit with a method it doesn't serve answers 405 with an
// Allow header listing the methods that would have worked.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	if allowed := s.allowedMethods(r.URL.Path); len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("%w: %s %s (allowed: %s)", ErrMethodNotAllowed, r.Method, r.URL.Path, strings.Join(allowed, ", ")))
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
}

// allowedMethods returns the deduplicated methods that serve path, in
// route-table order; empty means no route knows the path at all.
func (s *Server) allowedMethods(path string) []string {
	var allowed []string
	for _, rt := range s.routes() {
		if pathMatches(rt.pattern, path) && !slices.Contains(allowed, rt.method) {
			allowed = append(allowed, rt.method)
		}
	}
	return allowed
}

// pathMatches reports whether a concrete request path matches a route
// pattern, where a {x} segment matches any single non-empty segment.
// This mirrors the subset of ServeMux pattern syntax the route table
// uses — exact segments plus single-segment wildcards, no "..." tails.
func pathMatches(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	cs := strings.Split(path, "/")
	if len(ps) != len(cs) {
		return false
	}
	for i, seg := range ps {
		if len(seg) >= 2 && seg[0] == '{' && seg[len(seg)-1] == '}' {
			if cs[i] == "" {
				return false
			}
			continue
		}
		if seg != cs[i] {
			return false
		}
	}
	return true
}

// decodeBody decodes a JSON request body under the server's size cap,
// reporting whether decoding succeeded; on failure the 400/413 response
// has already been written. Unknown fields are rejected: a typo'd option
// name ("tennant") fails loudly with 400 instead of silently running
// with defaults.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// queryParams parses the request's query string, rejecting malformed
// pairs and any key outside allowed — the query-string twin of
// decodeBody's DisallowUnknownFields, for requests whose body is a frame.
func queryParams(r *http.Request, allowed ...string) (url.Values, error) {
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		return nil, fmt.Errorf("bad request query: %w", err)
	}
	for key := range q {
		if !slices.Contains(allowed, key) {
			return nil, fmt.Errorf("bad request query: unknown parameter %q", key)
		}
	}
	return q, nil
}

// handleRegisterBand is POST /v1/matrices with a band-frame body: what a
// coordinator's HTTPTransport sends a member. The id and name ride in the
// query string; storage is pinned general (see Transport.Register).
func (s *Server) handleRegisterBand(w http.ResponseWriter, r *http.Request) {
	q, err := queryParams(r, "id", "name")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	frame, status, err := s.readFrame(r, func(n int) []byte { return make([]byte, n) })
	if err != nil {
		writeError(w, status, err)
		return
	}
	m, err := decodeBand(frame)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	info, err := s.RegisterOpts(q.Get("id"), q.Get("name"), m, RegisterOptions{Symmetric: new(bool)})
	reply(w, http.StatusCreated, info, err)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if codecOf(r.Header.Get("Content-Type")) == codecBand {
		s.handleRegisterBand(w, r)
		return
	}
	var req registerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	m, name, err := matrixFromRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Shards >= 2 {
		if s.cluster == nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("shards=%d requested but this server fronts no cluster", req.Shards))
			return
		}
		if req.Symmetric != nil && *req.Symmetric {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("symmetric storage cannot be combined with shards=%d: row bands are stored general; omit symmetric or set it false", req.Shards))
			return
		}
		info, err := s.cluster.RegisterSharded(req.ID, name, m, req.Shards)
		reply(w, http.StatusCreated, info, err)
		return
	}
	info, err := s.RegisterOpts(req.ID, name, m, RegisterOptions{Symmetric: req.Symmetric})
	reply(w, http.StatusCreated, info, err)
}

// matrixFromRequest builds the matrix named by one register request. A
// request naming more than one source is ambiguous and rejected — the API
// promises exactly one of suite, entries, matrix_market.
func matrixFromRequest(req registerRequest) (*spmv.Matrix, string, error) {
	sources := 0
	if req.Suite != "" {
		sources++
	}
	if len(req.Entries) > 0 {
		sources++
	}
	if req.MatrixMarket != "" {
		sources++
	}
	if sources > 1 {
		return nil, "", fmt.Errorf("ambiguous request: provide exactly one of suite, entries, matrix_market")
	}
	var m *spmv.Matrix
	var name string
	var err error
	switch {
	case req.Suite != "":
		scale := req.Scale
		if scale <= 0 {
			scale = 0.02
		}
		m, err = spmv.GenerateSuite(req.Suite, scale, req.Seed)
		name = req.Suite
	case len(req.Entries) > 0:
		m, err = matrixFromEntries(req.Rows, req.Cols, req.Entries)
		name = "upload"
	case req.MatrixMarket != "":
		m, err = spmv.ReadMatrixMarket(strings.NewReader(req.MatrixMarket))
		name = "matrixmarket"
	default:
		err = fmt.Errorf("provide one of suite, entries, matrix_market")
	}
	if req.Name != "" {
		name = req.Name
	}
	return m, name, err
}

func matrixFromEntries(rows, cols int, entries [][3]float64) (*spmv.Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("rows and cols must be positive, got %dx%d", rows, cols)
	}
	m := spmv.NewMatrix(rows, cols)
	for n, e := range entries {
		i, j := int(e[0]), int(e[1])
		if float64(i) != e[0] || float64(j) != e[1] {
			return nil, fmt.Errorf("entry %d: non-integer indices (%g, %g)", n, e[0], e[1])
		}
		if err := m.Set(i, j, e[2]); err != nil {
			return nil, fmt.Errorf("entry %d: %w", n, err)
		}
	}
	return m, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Matrices())
}

// decodeMulFrame fills req from a frame-coded mul request: x is the body,
// read into a pooled vector, the options are query parameters named as the
// JSON fields are. The status is the HTTP code a non-nil error answers with.
func (s *Server) decodeMulFrame(r *http.Request, req *mulRequest) (int, error) {
	q, err := queryParams(r, "tenant", "class", "deadline_ms", "affinity")
	if err != nil {
		return http.StatusBadRequest, err
	}
	if v := q.Get("deadline_ms"); v != "" {
		if req.DeadlineMS, err = strconv.ParseInt(v, 10, 64); err != nil {
			return http.StatusBadRequest, fmt.Errorf("bad request query: deadline_ms: %w", err)
		}
	}
	req.Tenant, req.Class, req.Affinity = q.Get("tenant"), q.Get("class"), q.Get("affinity")
	frame, status, err := s.readFrame(r, func(n int) []byte {
		req.X = getVec((n + 7) / 8)
		return vecBytes(req.X)[:n]
	})
	if err != nil {
		return status, err
	}
	if len(frame)%8 != 0 {
		return http.StatusBadRequest, fmt.Errorf("bad request body: %d bytes is not a whole number of float64s", len(frame))
	}
	setVec(req.X, frame)
	return 0, nil
}

// wantsFrame picks the response codec of a mul: the Accept header decides
// when it names one of the two codecs, otherwise the answer mirrors the
// request's own codec.
func wantsFrame(r *http.Request, reqCodec string) bool {
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, mediaF64LE):
		return true
	case strings.Contains(accept, mediaJSON):
		return false
	}
	return reqCodec == codecF64LE
}

func (s *Server) handleMul(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req mulRequest
	codec := codecOf(r.Header.Get("Content-Type"))
	switch codec {
	case codecF64LE:
		if status, err := s.decodeMulFrame(r, &req); err != nil {
			writeError(w, status, err)
			return
		}
	case codecJSON:
		if !s.decodeBody(w, r, &req) {
			return
		}
	default:
		writeError(w, http.StatusUnsupportedMediaType, fmt.Errorf("%w: %q (mul takes %s or %s)",
			ErrUnsupportedMediaType, r.Header.Get("Content-Type"), mediaJSON, mediaF64LE))
		return
	}
	if req.DeadlineMS < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("negative deadline_ms %d", req.DeadlineMS))
		return
	}
	opts := MulOptions{
		Tenant:   req.Tenant,
		Class:    req.Class,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
		Affinity: req.Affinity,
	}
	// The instrumentation middleware cuts the decode and encode stages
	// around the span the serving layer reports here (see instrument).
	var span *mulSpan
	if sw, ok := w.(*statusWriter); ok {
		span = &sw.span
	}
	y, err := s.mulOpts(id, req.X, nil, opts, span)
	xPool.Put(&req.X) // no sweep reads x once mulOpts has returned
	if err == nil && wantsFrame(r, codec) {
		writeFrame(w, y)
		return
	}
	reply(w, http.StatusOK, mulResponse{Y: y}, err)
}

// patchRequest is the body of PATCH /v1/matrices/{id}: one atomic,
// ordered batch of COO deltas. The whole batch validates before any of
// it applies; a rejected batch leaves the matrix untouched.
type patchRequest struct {
	Deltas []Delta `json:"deltas"`
}

func (s *Server) handlePatchMatrix(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req patchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, err := s.Patch(id, req.Deltas)
	reply(w, http.StatusOK, res, err)
}

func (s *Server) handleDeleteMatrix(w http.ResponseWriter, r *http.Request) {
	res, err := s.DeleteMatrix(r.PathValue("id"))
	reply(w, http.StatusOK, res, err)
}

func (s *Server) handleTuning(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Tuning(r.PathValue("id"))
	reply(w, http.StatusOK, rep, err)
}

// StatsReport is /v1/stats: the local serving counters, the measured
// latency percentiles (per endpoint, per stage, per matrix, per SLO
// class), the admission-and-scheduling ledgers (per tenant, per class,
// Jain fairness) when the scheduling layer is on, plus the cluster
// rollup when this server fronts a shard coordinator. The embedded
// Stats keeps the flat single-node schema stable for existing
// consumers.
type StatsReport struct {
	Stats
	Latency   *LatencyReport   `json:"latency,omitempty"`
	Admission *AdmissionReport `json:"admission,omitempty"`
	Cluster   *ClusterStats    `json:"cluster,omitempty"`
}

// StatsReport assembles the full /v1/stats document. The error is always
// nil in-process; the signature is API's, whose wire implementation can
// fail.
func (s *Server) StatsReport() (StatsReport, error) {
	rep := StatsReport{Stats: s.Stats(), Latency: s.Latency(), Admission: s.Admission()}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		rep.Cluster = &cs
	}
	return rep, nil
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	rep, _ := s.StatsReport() // never fails in-process
	writeJSON(w, http.StatusOK, rep)
}

// clusterResponse is GET /v1/cluster: the shard topology.
type clusterResponse struct {
	Members  []MemberInfo        `json:"members"`
	Matrices []ShardedMatrixInfo `json:"matrices"`
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this server fronts no cluster"))
		return
	}
	writeJSON(w, http.StatusOK, clusterResponse{
		Members:  s.cluster.Members(),
		Matrices: s.cluster.Matrices(),
	})
}

// handleMetrics serves the Prometheus text exposition (version 0.0.4)
// through obs.Expositor, the writer whose output obs.ParseExposition
// round-trips in the tests: counters and gauges for the serving state,
// per-matrix roofline attribution gauges, and — when observability is on
// — proper histogram families (_bucket/_sum/_count with cumulative le
// bounds) for the endpoint, stage, and matrix latency surfaces.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	e := obs.NewExpositor(w)
	e.Counter("spmv_serve_requests_total", "Mul requests admitted.", float64(st.Requests))
	e.Counter("spmv_serve_sweeps_total", "Kernel sweeps executed.", float64(st.Sweeps))
	e.Counter("spmv_serve_fused_sweeps_total", "Sweeps that coalesced >= 2 requests.", float64(st.FusedSweeps))
	e.Counter("spmv_serve_fused_requests_total", "Requests served by fused sweeps.", float64(st.FusedRequests))
	e.Counter("spmv_serve_single_fallbacks_total", "Requests served alone, by a width-1 sweep.", float64(st.SingleFallbacks))
	e.Gauge("spmv_serve_matrices_registered", "Matrices in the registry.", float64(st.Registered))
	e.Counter("spmv_serve_compiles_total", "Tuner+compile runs.", float64(st.Compiles))
	e.Counter("spmv_serve_solve_sessions_total", "Solver sessions created.", float64(st.SolveSessions))
	e.Counter("spmv_serve_solve_iters_total", "Solver iterations executed (each one lane of a sweep).", float64(st.SolveIters))
	e.Counter("spmv_serve_patches_total", "PATCH batches applied.", float64(st.Patches))
	e.Counter("spmv_serve_deltas_applied_total", "Individual COO deltas applied.", float64(st.DeltasApplied))
	e.Counter("spmv_serve_recompactions_total", "Delta logs folded into a fresh tuned base.", float64(st.Recompactions))
	e.Counter("spmv_serve_sym_demotions_total", "Symmetric matrices demoted to general by a mutation.", float64(st.SymDemotions))
	e.Counter("spmv_serve_deletes_total", "Matrices torn down via DELETE.", float64(st.Deletes))
	e.Counter("spmv_serve_overlay_bytes_total", "Modeled overlay-pass DRAM bytes moved by sweeps over mutated matrices.", float64(st.OverlayBytes))
	s.sessMu.Lock()
	resident := len(s.sessions)
	s.sessMu.Unlock()
	e.Gauge("spmv_serve_solve_sessions_resident", "Solver sessions resident (running or uncollected).", float64(resident))
	e.Counter("spmv_serve_matrix_bytes_total", "Modeled matrix-stream DRAM bytes moved.", float64(st.MatrixBytes))
	e.Counter("spmv_serve_source_bytes_total", "Modeled source-vector DRAM bytes moved.", float64(st.SourceBytes))
	e.Counter("spmv_serve_dest_bytes_total", "Modeled destination-vector DRAM bytes moved.", float64(st.DestBytes))
	e.Counter("spmv_serve_saved_bytes_total", "Matrix-stream bytes avoided by fusion.", float64(st.SavedBytes))
	var widths []obs.Sample
	for wd, n := range st.FusedWidthHist {
		if n > 0 {
			widths = append(widths, obs.Sample{
				Labels: map[string]string{"width": strconv.Itoa(wd)}, Value: float64(n),
			})
		}
	}
	e.CounterVec("spmv_serve_fused_width_sweeps_total", "Sweeps by fused width.", widths)

	// Roofline attribution per matrix: modeled bytes over measured sweep
	// seconds, and that bandwidth as a fraction of the configured
	// sustained-DRAM reference. Attribution is per serving generation —
	// the gauges reflect the current operator's own sweeps.
	var achieved, ratio, gens, overlay []obs.Sample
	for _, entry := range s.reg.list() {
		sv := entry.cur.Load()
		if sv == nil {
			continue
		}
		rs := sv.roof.Stats(s.cfg.RooflineGBs)
		labels := map[string]string{"id": entry.ID, "kernel": sv.op.KernelName()}
		gens = append(gens, obs.Sample{Labels: map[string]string{"id": entry.ID}, Value: float64(sv.gen)})
		if sv.ovBytes > 0 {
			overlay = append(overlay, obs.Sample{Labels: map[string]string{"id": entry.ID}, Value: float64(sv.ovBytes)})
		}
		if rs.Sweeps == 0 {
			continue
		}
		achieved = append(achieved, obs.Sample{Labels: labels, Value: rs.AchievedGBs})
		ratio = append(ratio, obs.Sample{Labels: labels, Value: rs.ModelRatio})
	}
	e.GaugeVec("spmv_serve_matrix_generation", "Serving snapshot generation (recompactions).", gens)
	e.GaugeVec("spmv_serve_matrix_overlay_bytes", "Modeled per-sweep overlay cost of the pending delta log.", overlay)
	e.GaugeVec("spmv_serve_matrix_achieved_gbs", "Measured-vs-modeled roofline: modeled bytes over measured sweep seconds.", achieved)
	e.GaugeVec("spmv_serve_matrix_roofline_ratio", "Achieved bandwidth over the configured sustained-DRAM reference.", ratio)

	if s.obs != nil {
		e.HistogramFamily("spmv_http_request_duration_seconds",
			"HTTP request latency by endpoint.", s.obs.endpoint.Series("endpoint"))
		e.HistogramFamily("spmv_serve_stage_duration_seconds",
			"Serving pipeline stage latency (decode, queue, interleave, execute, gather, encode, solve_iter, solve_sweep).",
			s.obs.stage.Series("stage"))
		e.HistogramFamily("spmv_serve_mul_duration_seconds",
			"Mul latency by matrix, admission to reply.", s.obs.matrix.Series("id"))
		e.HistogramFamily("spmv_serve_class_duration_seconds",
			"Mul latency by SLO class, admission to reply (failures included).",
			s.obs.class.Series("class"))
		e.CounterVec("spmv_http_body_bytes_total",
			"HTTP body bytes by endpoint, codec (json, f64le, band, other) and direction (in, out).",
			s.obs.bodyByteSamples())
	}

	if rep := s.Admission(); rep != nil {
		var served, rejected, servedBytes, queued []obs.Sample
		for name, ts := range rep.Tenants {
			l := map[string]string{"tenant": name}
			served = append(served, obs.Sample{Labels: l, Value: float64(ts.ServedRequests)})
			rejected = append(rejected, obs.Sample{Labels: l, Value: float64(ts.RejectedRequests)})
			servedBytes = append(servedBytes, obs.Sample{Labels: l, Value: float64(ts.ServedBytes)})
			queued = append(queued, obs.Sample{Labels: l, Value: float64(ts.QueuedBytes)})
		}
		e.CounterVec("spmv_sched_tenant_served_requests_total", "Requests (and solve sessions) served, by tenant.", served)
		e.CounterVec("spmv_sched_tenant_rejected_requests_total", "Requests rejected by the tenant's token bucket.", rejected)
		e.CounterVec("spmv_sched_tenant_served_bytes_total", "Modeled DRAM bytes executed, by tenant (the Jain allocations).", servedBytes)
		e.GaugeVec("spmv_sched_tenant_queued_bytes", "Modeled bytes admitted but not yet executing, by tenant.", queued)
		var cServed, cRejected, cExpired, cQueued []obs.Sample
		for name, cs := range rep.Classes {
			l := map[string]string{"class": name}
			cServed = append(cServed, obs.Sample{Labels: l, Value: float64(cs.ServedRequests)})
			cRejected = append(cRejected, obs.Sample{Labels: l, Value: float64(cs.RejectedRequests)})
			cExpired = append(cExpired, obs.Sample{Labels: l, Value: float64(cs.ExpiredRequests)})
			cQueued = append(cQueued, obs.Sample{Labels: l, Value: float64(cs.QueuedBytes)})
		}
		e.CounterVec("spmv_sched_class_served_requests_total", "Requests served, by SLO class.", cServed)
		e.CounterVec("spmv_sched_class_rejected_requests_total", "Requests rejected at admission, by SLO class.", cRejected)
		e.CounterVec("spmv_sched_class_expired_requests_total", "Requests shed on an expired deadline, by SLO class.", cExpired)
		e.GaugeVec("spmv_sched_class_queued_bytes", "Modeled bytes waiting at the priority gate, by SLO class.", cQueued)
		e.Gauge("spmv_sched_jain_fairness", "Jain fairness index over per-tenant served modeled bytes.", rep.JainFairness)
	}

	if s.cluster != nil {
		cs := s.cluster.Stats()
		e.Gauge("spmv_cluster_members", "Cluster member nodes.", float64(cs.Members))
		e.Gauge("spmv_cluster_members_ejected", "Members ejected from routing.", float64(cs.Ejected))
		e.Gauge("spmv_cluster_matrices", "Sharded matrices served.", float64(cs.Matrices))
		e.Counter("spmv_cluster_requests_total", "Sharded Mul requests admitted.", float64(cs.Requests))
		e.Counter("spmv_cluster_scatters_total", "Band sub-requests issued.", float64(cs.Scatters))
		e.Counter("spmv_cluster_retries_total", "Failed band sub-request attempts.", float64(cs.Retries))
		e.Counter("spmv_cluster_failovers_total", "Bands served by a fallback replica.", float64(cs.Failovers))
		e.Counter("spmv_cluster_ejections_total", "Member ejections.", float64(cs.Ejections))
		e.Counter("spmv_cluster_probes_total", "Half-open probe trials issued to ejected members.", float64(cs.Probes))
		e.Counter("spmv_cluster_recoveries_total", "Ejected members restored to rotation by a probe.", float64(cs.Recoveries))
		var rInflight, rServed, rRequests, rFailRate []obs.Sample
		for _, ms := range cs.Member {
			l := map[string]string{"member": ms.Name}
			rInflight = append(rInflight, obs.Sample{Labels: l, Value: float64(ms.InFlightBytes)})
			rServed = append(rServed, obs.Sample{Labels: l, Value: float64(ms.ServedBytes)})
			rRequests = append(rRequests, obs.Sample{Labels: l, Value: float64(ms.Requests)})
			rFailRate = append(rFailRate, obs.Sample{Labels: l, Value: ms.FailureRate})
		}
		e.GaugeVec("spmv_cluster_route_inflight_bytes", "Modeled sweep bytes dispatched and not yet completed, by member.", rInflight)
		e.CounterVec("spmv_cluster_route_served_bytes_total", "Modeled sweep bytes served, by member.", rServed)
		e.CounterVec("spmv_cluster_route_requests_total", "Successful band sub-requests, by member.", rRequests)
		e.GaugeVec("spmv_cluster_route_failure_rate", "Decayed windowed failure rate, by member.", rFailRate)
	}
}
