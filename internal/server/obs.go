// Observability layer of the serving subsystem: per-request span traces
// into a sampled lock-free ring, per-endpoint / per-stage / per-matrix
// latency histograms, structured request logging with request ids, and
// the liveness/buildinfo endpoints. The recording paths are pure
// atomics (internal/obs); when Config.ObsSample is 0 the layer is off
// and the hot path takes no timestamps at all.
package server

import (
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultObsSample is the trace-sampling denominator DefaultConfig uses:
// 1 in 16 requests gets a full span trace. Latency histograms and
// roofline accounting record every request regardless — they are a few
// atomic adds; only trace assembly allocates.
const DefaultObsSample = 16

// obsRingSize is the trace ring capacity: the most recent sampled traces
// GET /v1/traces can return.
const obsRingSize = 256

// Serving-stage names: the spans of a Mul request's timeline and the
// histogram labels of the per-stage latency surface.
const (
	stageDecode     = "decode"     // HTTP only: request arrival -> batcher admission (body read + decode, validation)
	stageQueue      = "queue"      // batcher admission -> sweep start (linger + backlog)
	stageInterleave = "interleave" // batch formation: gathering x vectors into the fused block (nothing at width 1)
	stageExecute    = "execute"    // worker-pool sweep execution
	stageGather     = "gather"     // deinterleave into the result vectors (nothing at width 1)
	stageEncode     = "encode"     // HTTP only: results ready -> response written (delivery, encode, write)
	stageSolveIter  = "solve_iter" // one full solver iteration (sweep + BLAS-1 tail)
	stageSolveSweep = "solve_sweep"
)

// obsState is the server's observability plumbing, nil when disabled.
type obsState struct {
	ring    *obs.Ring
	sampler *obs.Sampler

	endpoint obs.Vec // HTTP endpoint -> request latency (decode/encode included)
	stage    obs.Vec // pipeline stage -> latency
	matrix   obs.Vec // matrix id -> Mul latency (queue through gather)
	class    obs.Vec // SLO class -> Mul latency, failures included

	bodyBytes sync.Map // bodyKey -> *atomic.Int64: HTTP body bytes by endpoint, codec, direction
}

// bodyKey labels one spmv_http_body_bytes_total series.
type bodyKey struct{ endpoint, codec, dir string }

func (o *obsState) addBodyBytes(endpoint, contentType, dir string, n int64) {
	if n <= 0 {
		return
	}
	key := bodyKey{endpoint, codecOf(contentType), dir}
	c, ok := o.bodyBytes.Load(key)
	if !ok {
		c, _ = o.bodyBytes.LoadOrStore(key, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(n)
}

// bodyByteSamples snapshots the body-byte counters for /metrics.
func (o *obsState) bodyByteSamples() []obs.Sample {
	var out []obs.Sample
	o.bodyBytes.Range(func(k, c any) bool {
		key := k.(bodyKey)
		out = append(out, obs.Sample{
			Labels: map[string]string{"endpoint": key.endpoint, "codec": key.codec, "dir": key.dir},
			Value:  float64(c.(*atomic.Int64).Load()),
		})
		return true
	})
	return out
}

func newObsState(cfg Config) *obsState {
	if cfg.ObsSample <= 0 {
		return nil
	}
	return &obsState{
		ring:    obs.NewRing(obsRingSize),
		sampler: obs.NewSampler(cfg.ObsSample),
	}
}

// traceMul assembles and records one sampled Mul trace from the batch's
// shared stage boundaries. The spans are contiguous, so they tile the
// request's wall time exactly — the invariant GET /v1/traces consumers
// (and the e2e test) rely on.
func (o *obsState) traceMul(matrixID string, gen, width int, enq, execStart, interDone, execDone, sent time.Time) {
	t := &obs.Trace{
		ID: o.ring.NextID(), Op: "mul", Matrix: matrixID,
		Width: width, Gen: gen, Begin: enq, Wall: sent.Sub(enq),
		Spans: []obs.Span{
			{Name: stageQueue, Start: 0, Dur: execStart.Sub(enq)},
			{Name: stageInterleave, Start: execStart.Sub(enq), Dur: interDone.Sub(execStart)},
			{Name: stageExecute, Start: interDone.Sub(enq), Dur: execDone.Sub(interDone)},
			{Name: stageGather, Start: execDone.Sub(enq), Dur: sent.Sub(execDone)},
		},
	}
	o.ring.Put(t)
}

// traceSolveIter records one sampled solver iteration: the sweep span
// followed by the BLAS-1 tail. CG interleaves its vector ops around the
// sweep; the trace presents them sweep-first, which preserves the two
// durations and keeps the spans tiling the iteration wall time.
func (o *obsState) traceSolveIter(op, matrixID string, gen int, begin time.Time, sweep, wall time.Duration) {
	sweep = min(sweep, wall)
	t := &obs.Trace{
		ID: o.ring.NextID(), Op: op, Matrix: matrixID,
		Width: 1, Gen: gen, Begin: begin, Wall: wall,
		Spans: []obs.Span{
			{Name: stageSolveSweep, Start: 0, Dur: sweep},
			{Name: "blas", Start: sweep, Dur: wall - sweep},
		},
	}
	o.ring.Put(t)
}

// endpointNames maps mux patterns to the short endpoint labels used by
// the latency histograms, metrics, and request logs.
var endpointNames = map[string]string{
	"POST /v1/matrices":            "register",
	"GET /v1/matrices":             "list",
	"POST /v1/matrices/{id}/mul":   "mul",
	"GET /v1/matrices/{id}/tuning": "tuning",
	"POST /v1/matrices/{id}/solve": "solve_create",
	"GET /v1/solve":                "solve_list",
	"GET /v1/solve/{sid}":          "solve_get",
	"DELETE /v1/solve/{sid}":       "solve_delete",
	"GET /v1/stats":                "stats",
	"GET /v1/cluster":              "cluster",
	"GET /v1/traces":               "traces",
	"GET /v1/healthz":              "healthz",
	"GET /v1/buildinfo":            "buildinfo",
	"GET /metrics":                 "metrics",
}

func endpointName(pattern string) string {
	if n, ok := endpointNames[pattern]; ok {
		return n
	}
	return "unmatched"
}

// statusWriter captures the response code and body size for logging,
// histograms and byte counters, and carries the mul handler's stage span
// back to the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote int64
	span  mulSpan
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.wrote += int64(n)
	return n, err
}

var reqSeq atomic.Uint64 // request ids, monotone across servers in-process

// instrument wraps the API mux with request ids, per-endpoint latency
// recording, and structured access logs: every request logs at Debug,
// failures at Warn, so an -log-level info server stays quiet under
// healthy traffic but surfaces every error with its request id.
func (s *Server) instrument(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := reqSeq.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		end := time.Now()
		d := end.Sub(t0)
		ep := endpointName(r.Pattern)
		if o := s.obs; o != nil {
			o.endpoint.Observe(ep, d)
			if !sw.span.sent.IsZero() {
				// A served mul: the codec stages are whatever of the request
				// lies outside the serving span, so decode + queue +
				// interleave + execute + gather + encode is exactly d.
				o.stage.Observe(stageDecode, sw.span.enq.Sub(t0))
				o.stage.Observe(stageEncode, end.Sub(sw.span.sent))
			}
			o.addBodyBytes(ep, r.Header.Get("Content-Type"), "in", r.ContentLength)
			o.addBodyBytes(ep, sw.Header().Get("Content-Type"), "out", sw.wrote)
		}
		attrs := []any{
			slog.Uint64("req_id", id),
			slog.String("endpoint", ep),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Duration("dur", d),
		}
		if mid := r.PathValue("id"); mid != "" {
			attrs = append(attrs, slog.String("matrix", mid))
		}
		if sw.code >= 400 {
			s.log.Warn("request failed", attrs...)
		} else {
			s.log.Debug("request", attrs...)
		}
	})
}

// LatencyReport is the measured-latency section of /v1/stats: µs
// percentile summaries per HTTP endpoint, per serving stage, and per
// matrix. Empty maps mean observability is disabled (ObsSample 0).
type LatencyReport struct {
	Endpoint map[string]obs.HistStats `json:"endpoint,omitempty"`
	Stage    map[string]obs.HistStats `json:"stage,omitempty"`
	Matrix   map[string]obs.HistStats `json:"matrix,omitempty"`
	// Class is Mul latency per SLO class, failures (deadline misses)
	// included — the per-class p50/p99 surface the SLO scheduler is
	// judged by. Recorded whenever observability is on, scheduler or
	// not, so a FIFO server reports the comparison baseline.
	Class map[string]obs.HistStats `json:"class,omitempty"`
}

// Latency summarizes the measured-latency histograms. Nil when
// observability is disabled.
func (s *Server) Latency() *LatencyReport {
	if s.obs == nil {
		return nil
	}
	return &LatencyReport{
		Endpoint: s.obs.endpoint.Stats(),
		Stage:    s.obs.stage.Stats(),
		Matrix:   s.obs.matrix.Stats(),
		Class:    s.obs.class.Stats(),
	}
}

// Traces returns the sampled traces resident in the ring, oldest first.
func (s *Server) Traces() []*obs.Trace {
	if s.obs == nil {
		return nil
	}
	return s.obs.ring.Snapshot()
}

// tracesResponse is GET /v1/traces.
type tracesResponse struct {
	// Sample is the sampling denominator (1 in Sample requests traced);
	// 0 means tracing is disabled.
	Sample int          `json:"sample"`
	Traces []*obs.Trace `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces := s.Traces()
	if r.URL.Query().Get("format") == "chrome" {
		// chrome://tracing / Perfetto object form.
		writeJSON(w, http.StatusOK, map[string]any{"traceEvents": obs.ChromeTrace(traces)})
		return
	}
	sample := 0
	if s.obs != nil {
		sample = s.cfg.ObsSample
	}
	writeJSON(w, http.StatusOK, tracesResponse{Sample: sample, Traces: traces})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
		"matrices": s.st.registered.Load(),
	})
}

// buildInfo is GET /v1/buildinfo, resolved once at startup.
type buildInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	VCS       string `json:"vcs_revision,omitempty"`
}

func readBuildInfo() buildInfo {
	bi := buildInfo{Module: "unknown", Version: "devel", GoVersion: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Module = info.Main.Path
	if info.Main.Version != "" {
		bi.Version = info.Main.Version
	}
	bi.GoVersion = info.GoVersion
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			bi.VCS = kv.Value
		}
	}
	return bi
}

func (s *Server) handleBuildinfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, readBuildInfo())
}

// sweepModeledBytes is the modeled DRAM traffic of one width-w fused
// sweep — the numerator of the roofline attribution (matching the byte
// accounting stats.recordSweep applies).
func sweepModeledBytes(matrixB, sourceB, destB int64, width int) int64 {
	return matrixB + int64(width)*(sourceB+destB)
}
