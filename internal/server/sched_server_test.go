package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/sched"
)

// tridiag builds the n×n symmetric tridiagonal [-1, 2, -1] test matrix.
func tridiag(t *testing.T, n int) *spmv.Matrix {
	t.Helper()
	m := spmv.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		if err := m.Set(i, i, 2); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			_ = m.Set(i, i-1, -1)
			_ = m.Set(i-1, i, -1)
		}
	}
	return m
}

// newSchedServer starts a small single-worker server with the given
// scheduling config and one registered 8x8 matrix "a".
func newSchedServer(t *testing.T, sc sched.Config) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.MaxBatch = 1
	cfg.Sched = sc
	s := New(cfg)
	t.Cleanup(s.Close)
	if _, err := s.Register("a", "tri", tridiag(t, 8)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAdmissionBucket: a rate-limited tenant's first request admits
// (over-burst against a full bucket), the next rejects with a typed
// AdmissionError; other tenants are unmetered.
func TestAdmissionBucket(t *testing.T) {
	s := newSchedServer(t, sched.Config{
		Tenants: map[string]sched.TenantLimit{
			"limited": {BytesPerSec: 1, Burst: 1}, // ~one request, then starve
		},
	})
	x := make([]float64, 8)
	if _, err := s.MulOpts("a", x, MulOptions{Tenant: "limited"}); err != nil {
		t.Fatalf("first request should admit against the full bucket: %v", err)
	}
	_, err := s.MulOpts("a", x, MulOptions{Tenant: "limited"})
	if !errors.Is(err, ErrAdmissionLimited) {
		t.Fatalf("second request error = %v, want ErrAdmissionLimited", err)
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Tenant != "limited" || ae.RetryAfter <= 0 {
		t.Fatalf("admission error detail = %+v", ae)
	}
	// Unlimited tenants keep flowing.
	for i := 0; i < 3; i++ {
		if _, err := s.MulOpts("a", x, MulOptions{Tenant: "free"}); err != nil {
			t.Fatalf("unmetered tenant rejected: %v", err)
		}
	}
	rep := s.Admission()
	if rep == nil {
		t.Fatal("Admission() = nil with tenant limits configured")
	}
	lt := rep.Tenants["limited"]
	if lt.ServedRequests != 1 || lt.RejectedRequests != 1 {
		t.Errorf("limited tenant stats = %+v, want 1 served / 1 rejected", lt)
	}
	if ft := rep.Tenants["free"]; ft.ServedRequests != 3 || ft.BucketBalance != nil {
		t.Errorf("free tenant stats = %+v, want 3 served, no bucket", ft)
	}
	if rep.JainFairness <= 0 || rep.JainFairness > 1 {
		t.Errorf("Jain index %g out of (0, 1]", rep.JainFairness)
	}
}

// TestAdmissionHTTP429: the wire contract — 429, a Retry-After header,
// and the admission_limited envelope code — for Mul and solve creation.
func TestAdmissionHTTP429(t *testing.T) {
	s := newSchedServer(t, sched.Config{
		Tenants: map[string]sched.TenantLimit{
			"limited": {BytesPerSec: 1, Burst: 1},
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x := make([]float64, 8)
	resp := postJSON(t, ts.URL+"/v1/matrices/a/mul", mulRequest{X: x, Tenant: "limited"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first mul status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/matrices/a/mul", mulRequest{X: x, Tenant: "limited"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second mul status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header = %q, want a positive whole-second value", ra)
	}
	e := decode[errorResponse](t, resp)
	if e.Error.Code != "admission_limited" || e.Error.Message == "" {
		t.Errorf("envelope = %+v, want code admission_limited", e.Error)
	}

	// Solver sessions admit against the same bucket.
	resp = postJSON(t, ts.URL+"/v1/matrices/a/solve",
		SolveRequest{Method: "power", MaxIters: 64, Tenant: "limited"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("solve create status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("solve 429 without Retry-After")
	}
	e = decode[errorResponse](t, resp)
	if e.Error.Code != "admission_limited" {
		t.Errorf("solve envelope code = %q", e.Error.Code)
	}
}

// TestErrorEnvelopeShape: every 4xx surface answers the uniform
// {"error":{"code","message"}} envelope with its documented code.
func TestErrorEnvelopeShape(t *testing.T) {
	s := newSchedServer(t, sched.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name   string
		resp   *http.Response
		status int
		code   string
	}{
		{"unmatched path", get("/v1/nope"), 404, "not_found"},
		{"unknown matrix", postJSON(t, ts.URL+"/v1/matrices/ghost/mul", mulRequest{X: []float64{1}}), 404, "unknown_matrix"},
		{"unknown session", get("/v1/solve/s999"), 404, "unknown_session"},
		{"duplicate id", postJSON(t, ts.URL+"/v1/matrices", registerRequest{
			ID: "a", Rows: 1, Cols: 1, Entries: [][3]float64{{0, 0, 1}},
		}), 409, "already_registered"},
		{"bad body", postJSON(t, ts.URL+"/v1/matrices/a/mul", map[string]any{
			"x": []float64{1, 2, 3, 4, 5, 6, 7, 8}, "tennant": "typo",
		}), 400, "bad_request"},
		{"bad class", postJSON(t, ts.URL+"/v1/matrices/a/mul", mulRequest{
			X: make([]float64, 8), Class: "interactive",
		}), 400, "bad_request"},
		{"negative deadline", postJSON(t, ts.URL+"/v1/matrices/a/mul", mulRequest{
			X: make([]float64, 8), DeadlineMS: -5,
		}), 400, "bad_request"},
		{"no cluster", get("/v1/cluster"), 404, "not_found"},
	}
	for _, tc := range cases {
		if tc.resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, tc.resp.StatusCode, tc.status)
		}
		e := decode[errorResponse](t, tc.resp)
		if e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (message %q)", tc.name, e.Error.Code, tc.code, e.Error.Message)
		}
		if e.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestUnknownFieldRejected: DisallowUnknownFields turns a typo'd option
// name into a loud 400 naming the field.
func TestUnknownFieldRejected(t *testing.T) {
	s := newSchedServer(t, sched.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/matrices/a/mul", map[string]any{
		"x": make([]float64, 8), "clas": "latency",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	e := decode[errorResponse](t, resp)
	if !strings.Contains(e.Error.Message, "clas") {
		t.Errorf("error %q does not name the unknown field", e.Error.Message)
	}
}

// TestPerClassStats: served/expired counters and class latency
// histograms land in the stats report under the right class names.
func TestPerClassStats(t *testing.T) {
	s := newSchedServer(t, sched.Config{Enabled: true, DefaultClass: sched.Standard})
	x := make([]float64, 8)
	for i := 0; i < 4; i++ {
		if _, err := s.MulOpts("a", x, MulOptions{Class: "latency"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.MulOpts("a", x, MulOptions{Class: "bulk"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MulOpts("a", x, MulOptions{}); err != nil { // default: standard
		t.Fatal(err)
	}
	// An already-expired deadline is shed at execution and counted.
	if _, err := s.MulOpts("a", x, MulOptions{Class: "bulk", Deadline: time.Nanosecond}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline error = %v, want ErrDeadlineExceeded", err)
	}

	rep, _ := s.StatsReport()
	if rep.Admission == nil {
		t.Fatal("no admission section with scheduling enabled")
	}
	cl := rep.Admission.Classes
	if cl["latency"].ServedRequests != 4 || cl["standard"].ServedRequests != 1 || cl["bulk"].ServedRequests != 1 {
		t.Errorf("class served = lat %d / std %d / bulk %d, want 4/1/1",
			cl["latency"].ServedRequests, cl["standard"].ServedRequests, cl["bulk"].ServedRequests)
	}
	if cl["bulk"].ExpiredRequests != 1 {
		t.Errorf("bulk expired = %d, want 1", cl["bulk"].ExpiredRequests)
	}
	if rep.Admission.DefaultClass != "standard" {
		t.Errorf("default class = %q", rep.Admission.DefaultClass)
	}
	if rep.Latency == nil || rep.Latency.Class["latency"].Count != 4 {
		t.Errorf("class latency histogram = %+v, want 4 latency observations", rep.Latency)
	}
	// Deadline failures record class latency too.
	if got := rep.Latency.Class["bulk"].Count; got != 2 {
		t.Errorf("bulk latency count = %d, want 2 (one served, one expired)", got)
	}
}

// TestAgingPreventsStarvation: under sustained latency-class load on a
// one-slot server, a bulk request still completes promptly — the aging
// escalator outranks fresh latency work once the bulk job has waited.
func TestAgingPreventsStarvation(t *testing.T) {
	s := newSchedServer(t, sched.Config{Enabled: true, Aging: 2 * time.Millisecond})
	x := make([]float64, 8)

	stop := make(chan struct{})
	var loaders sync.WaitGroup
	var latencyServed atomic.Int64
	for i := 0; i < 4; i++ {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.MulOpts("a", x, MulOptions{Class: "latency"}); err == nil {
					latencyServed.Add(1)
				}
			}
		}()
	}
	// Let the latency load saturate the single gate slot, then ask for
	// bulk work under it.
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := s.MulOpts("a", x, MulOptions{Class: "bulk"})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("bulk request failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("bulk request starved for 5s under latency load")
	}
	close(stop)
	loaders.Wait()
	if latencyServed.Load() == 0 {
		t.Error("latency load generator served nothing; test exercised no contention")
	}
}

// TestSolvePacingCancel: a session whose bucket is exhausted blocks at
// its burst boundary; cancellation unblocks it into the cancelled state.
func TestSolvePacingCancel(t *testing.T) {
	s := newSchedServer(t, sched.Config{
		Tenants: map[string]sched.TenantLimit{
			"slow": {BytesPerSec: 1, Burst: 1}, // first burst over-burst admits, next never refills
		},
	})
	st, err := s.SolveOpts("a", SolveRequest{
		Method: "power", MaxIters: MaxSolveIters, Tol: 0, Tenant: "slow",
	}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The session runs its admitted burst (solveChargeIters iterations)
	// quickly, then parks in Bucket.Wait for a refill that is years away.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := s.SolveStatus(st.SID, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Iters >= solveChargeIters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck before its burst: %+v", cur)
		}
	}
	got, err := s.CancelSolve(st.SID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != stateCancelled {
		t.Fatalf("state after cancel = %q", got.State)
	}
	if got.Iters > solveChargeIters {
		t.Errorf("session ran %d iters, more than the single admitted burst %d", got.Iters, solveChargeIters)
	}
}

// TestHTTPClientAPI: the wire client implements the unified API —
// results round-trip and sentinel errors are restored from the envelope.
func TestHTTPClientAPI(t *testing.T) {
	s := newSchedServer(t, sched.Config{
		Enabled: true,
		Tenants: map[string]sched.TenantLimit{
			"limited": {BytesPerSec: 1, Burst: 1},
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var clients = map[string]API{
		"in-process": s,
		"http":       NewHTTPClient(ts.URL, nil),
	}
	x := make([]float64, 8)
	x[0] = 1
	want, err := s.MulOpts("a", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range clients {
		y, err := c.MulOpts("a", x, MulOptions{Class: "latency"})
		if err != nil {
			t.Fatalf("%s MulOpts: %v", name, err)
		}
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("%s y = %v, want %v", name, y, want)
			}
		}
		if _, err := c.MulOpts("ghost", x, MulOptions{}); !errors.Is(err, ErrUnknownMatrix) {
			t.Errorf("%s unknown-matrix error = %v", name, err)
		}
		st, err := c.SolveOpts("a", SolveRequest{Method: "cg", B: make([]float64, 8), MaxIters: 8}, SolveOptions{Class: "bulk"})
		if err != nil {
			t.Fatalf("%s SolveOpts: %v", name, err)
		}
		if fin, err := c.SolveStatus(st.SID, 2*time.Second); err != nil || fin.State == stateRunning {
			t.Fatalf("%s SolveStatus = %+v, %v", name, fin, err)
		}
		if _, err := c.CancelSolve(st.SID); err != nil {
			t.Fatalf("%s CancelSolve: %v", name, err)
		}
		rep, err := c.StatsReport()
		if err != nil {
			t.Fatalf("%s StatsReport: %v", name, err)
		}
		if rep.Admission == nil || rep.Requests == 0 {
			t.Errorf("%s stats report missing sections: %+v", name, rep)
		}
	}

	// The HTTP client restores admission rejections as *AdmissionError.
	hc := clients["http"]
	if _, err := hc.MulOpts("a", x, MulOptions{Tenant: "limited"}); err != nil {
		t.Fatalf("limited tenant's first request: %v", err)
	}
	_, err = hc.MulOpts("a", x, MulOptions{Tenant: "limited"})
	var ae *AdmissionError
	if !errors.Is(err, ErrAdmissionLimited) || !errors.As(err, &ae) || ae.RetryAfter < time.Second {
		t.Fatalf("http admission error = %v (as=%+v)", err, ae)
	}
}

// TestSchedOffUnchanged: with the zero config the layer is inert — no
// admission section, no gate, options still validate.
func TestSchedOffUnchanged(t *testing.T) {
	s := newSchedServer(t, sched.Config{})
	if s.sched != nil {
		t.Fatal("schedState allocated for an inactive config")
	}
	if s.Admission() != nil {
		t.Fatal("Admission() non-nil with the layer off")
	}
	x := make([]float64, 8)
	if _, err := s.MulOpts("a", x, MulOptions{Tenant: "anyone", Class: "latency"}); err != nil {
		t.Fatalf("options on a FIFO server must still work: %v", err)
	}
	if _, err := s.MulOpts("a", x, MulOptions{Class: "wat"}); err == nil {
		t.Fatal("bad class accepted on a FIFO server")
	}
	// Per-class latency still records (the FIFO comparison baseline).
	if rep := s.Latency(); rep == nil || rep.Class["latency"].Count != 1 {
		t.Errorf("class latency on FIFO server = %+v", rep)
	}
}
