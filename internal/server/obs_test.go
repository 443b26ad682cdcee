package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/obs"
)

// obsConfig traces every request (sample 1) so the tests are
// deterministic about what lands in the ring.
func obsConfig() Config {
	cfg := DefaultConfig()
	cfg.ObsSample = 1
	return cfg
}

// registerTiny registers the 2x3 test matrix and returns its id.
func registerTiny(t *testing.T, url string) string {
	t.Helper()
	resp := postJSON(t, url+"/v1/matrices", registerRequest{
		ID: "tiny", Rows: 2, Cols: 3,
		Entries: [][3]float64{{0, 0, 2}, {0, 2, 1}, {1, 1, 3}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	resp.Body.Close()
	return "tiny"
}

// TestStatsLatencyPercentiles drives traffic and checks /v1/stats reports
// per-endpoint and per-stage percentile summaries (p50/p95/p99/p99.9).
func TestStatsLatencyPercentiles(t *testing.T) {
	s := New(obsConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := registerTiny(t, ts.URL)

	for i := 0; i < 20; i++ {
		resp := postJSON(t, ts.URL+"/v1/matrices/"+id+"/mul", mulRequest{X: []float64{1, 2, 3}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mul status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	stResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[StatsReport](t, stResp)
	if st.Latency == nil {
		t.Fatal("stats response has no latency section")
	}
	ep, ok := st.Latency.Endpoint["mul"]
	if !ok {
		t.Fatalf("no mul endpoint histogram; endpoints: %v", st.Latency.Endpoint)
	}
	if ep.Count != 20 {
		t.Fatalf("mul endpoint count %d, want 20", ep.Count)
	}
	// The percentile ladder is monotone and positive; p999 never exceeds max.
	if !(ep.P50US > 0 && ep.P50US <= ep.P95US && ep.P95US <= ep.P99US && ep.P99US <= ep.P999US && ep.P999US <= ep.MaxUS) {
		t.Fatalf("endpoint percentiles not a monotone ladder: %+v", ep)
	}
	for _, stage := range []string{"queue", "execute"} {
		hs, ok := st.Latency.Stage[stage]
		if !ok || hs.Count == 0 {
			t.Fatalf("stage %q missing from latency report: %v", stage, st.Latency.Stage)
		}
	}
	if hs, ok := st.Latency.Matrix[id]; !ok || hs.Count != 20 {
		t.Fatalf("matrix latency for %q wrong: %+v (all: %v)", id, hs, st.Latency.Matrix)
	}
}

// TestMetricsParserValid scrapes /metrics after mixed traffic (Muls and a
// solver session) and round-trips it through the validating parser: the
// exposition must be structurally correct Prometheus text format, keep
// the legacy counter names, and carry the latency histogram families.
func TestMetricsParserValid(t *testing.T) {
	s := New(obsConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := registerTiny(t, ts.URL)
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts.URL+"/v1/matrices/"+id+"/mul", mulRequest{X: []float64{1, 2, 3}})
		resp.Body.Close()
	}

	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics is not parser-valid: %v\n%s", err, body)
	}
	for _, name := range []string{
		"spmv_serve_requests_total", "spmv_serve_sweeps_total",
		"spmv_serve_matrices_registered", "spmv_serve_fused_width_sweeps_total",
		"spmv_serve_solve_sessions_total",
	} {
		if fams[name] == nil {
			t.Errorf("family %q missing from /metrics", name)
		}
	}
	f := fams["spmv_http_request_duration_seconds"]
	if f == nil || f.Type != "histogram" {
		t.Fatalf("request-duration histogram family missing: %+v", f)
	}
	var mulCount float64
	for _, smp := range f.Samples {
		if smp.Name == "spmv_http_request_duration_seconds_count" && smp.Labels["endpoint"] == "mul" {
			mulCount = smp.Value
		}
	}
	if mulCount != 5 {
		t.Fatalf("mul endpoint histogram _count = %g, want 5", mulCount)
	}
	if fams["spmv_serve_stage_duration_seconds"] == nil {
		t.Error("stage-duration histogram family missing")
	}
	if req := fams["spmv_serve_requests_total"]; req.Samples[0].Value != 5 {
		t.Errorf("requests_total %g, want 5", req.Samples[0].Value)
	}
}

// TestTracesSpansTileWall pulls the sampled traces and checks the
// acceptance invariant: each trace's stage durations are contiguous and
// sum to exactly its recorded wall time, and the wall time is bounded by
// the latency the client could measure.
func TestTracesSpansTileWall(t *testing.T) {
	s := New(obsConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := registerTiny(t, ts.URL)
	for i := 0; i < 8; i++ {
		resp := postJSON(t, ts.URL+"/v1/matrices/"+id+"/mul", mulRequest{X: []float64{1, 2, 3}})
		resp.Body.Close()
	}

	trResp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	tr := decode[tracesResponse](t, trResp)
	if tr.Sample != 1 {
		t.Fatalf("sample %d, want 1", tr.Sample)
	}
	if len(tr.Traces) != 8 {
		t.Fatalf("%d traces, want 8 (sample=1, 8 muls)", len(tr.Traces))
	}
	for _, trace := range tr.Traces {
		if trace.Op != "mul" || trace.Matrix != id {
			t.Fatalf("unexpected trace %+v", trace)
		}
		if len(trace.Spans) != 4 {
			t.Fatalf("trace %d has %d spans, want 4", trace.ID, len(trace.Spans))
		}
		var sum time.Duration
		cursor := time.Duration(0)
		for _, sp := range trace.Spans {
			if sp.Start != cursor {
				t.Fatalf("trace %d: span %q starts at %v, want %v (contiguous)", trace.ID, sp.Name, sp.Start, cursor)
			}
			if sp.Dur < 0 {
				t.Fatalf("trace %d: span %q has negative duration", trace.ID, sp.Name)
			}
			cursor = sp.Start + sp.Dur
			sum += sp.Dur
		}
		if sum != trace.Wall {
			t.Fatalf("trace %d: spans sum to %v, wall is %v", trace.ID, sum, trace.Wall)
		}
	}

	// Chrome export: every trace becomes a request event plus its spans.
	chResp, err := http.Get(ts.URL + "/v1/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(chResp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	chResp.Body.Close()
	if want := 8 * 5; len(chrome.TraceEvents) != want {
		t.Fatalf("%d chrome events, want %d (8 traces x (1 request + 4 spans))", len(chrome.TraceEvents), want)
	}
}

// TestMulStagesTileEndpoint extends the tiling invariant from the trace
// spans to the whole HTTP request: with decode and encode cut from the
// middleware's own timestamps, the mul endpoint histogram's total equals
// the six stage totals to the nanosecond, on both codecs — nothing of a
// request is outside every stage. The same traffic must show up in the
// body-byte counters, split by codec and direction.
func TestMulStagesTileEndpoint(t *testing.T) {
	s := New(obsConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := registerTiny(t, ts.URL)
	hc := NewHTTPClient(ts.URL, nil)
	const n = 12
	for i := 0; i < n; i++ {
		resp := postJSON(t, ts.URL+"/v1/matrices/"+id+"/mul", mulRequest{X: []float64{1, 2, 3}})
		resp.Body.Close()
		if _, err := hc.MulOpts(id, []float64{1, 2, 3}, MulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// These responses fit the server's write buffer, so each reached its
	// client only after the middleware had recorded it.
	stageTotals := func() (count uint64, sum int64) {
		for _, stage := range []string{stageDecode, stageQueue, stageInterleave, stageExecute, stageGather, stageEncode} {
			snap := s.obs.stage.Get(stage).Snapshot()
			if snap.Count != 2*n {
				t.Errorf("stage %q count %d, want %d", stage, snap.Count, 2*n)
			}
			count += snap.Count
			sum += snap.Sum
		}
		return count, sum
	}
	ep := s.obs.endpoint.Get("mul").Snapshot()
	count, sum := stageTotals()
	if ep.Count != 2*n || ep.Sum != sum {
		t.Fatalf("mul endpoint: %d requests totalling %dns; its six stages total %dns — they must tile it exactly",
			ep.Count, ep.Sum, sum)
	}
	// A failed mul has an endpoint latency but no serving span: it must
	// not be cut into decode/encode either.
	if _, err := hc.MulOpts(id, []float64{1, 2}, MulOptions{}); err == nil {
		t.Fatal("short x accepted")
	}
	if c, _ := stageTotals(); c != count {
		t.Errorf("a failed mul recorded %d stage observations", c-count)
	}

	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(metResp.Body)
	metResp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics is not parser-valid: %v", err)
	}
	f := fams["spmv_http_body_bytes_total"]
	if f == nil || f.Type != "counter" {
		t.Fatalf("body-bytes counter family missing: %+v", f)
	}
	got := map[string]float64{}
	for _, smp := range f.Samples {
		if smp.Labels["endpoint"] == "mul" {
			got[smp.Labels["codec"]+"/"+smp.Labels["dir"]] = smp.Value
		}
	}
	// Frames: 3 float64 in and 2 out per request, plus the failed 2-float
	// request; its error envelope is JSON out.
	if got["f64le/in"] != n*24+16 || got["f64le/out"] != n*16 {
		t.Errorf("frame body bytes %v, want in=%d out=%d", got, n*24+16, n*16)
	}
	if got["json/in"] != n*float64(len(`{"x":[1,2,3]}`)) || got["json/out"] <= n*float64(len(`{"y":[5,6]}`)) {
		t.Errorf("JSON body bytes %v", got)
	}
}

// TestTuningMeasuredRoofline checks the measured-vs-modeled attribution
// in GET /v1/matrices/{id}/tuning: after real sweeps, measured sweep
// seconds and modeled bytes are positive and consistent with the
// achieved-bandwidth ratio.
func TestTuningMeasuredRoofline(t *testing.T) {
	s := New(obsConfig())
	defer s.Close()
	c := s
	info, err := c.RegisterSuite("qcd", "QCD", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, info.Cols)
	for i := range x {
		x[i] = 1
	}
	for i := 0; i < 10; i++ {
		if _, err := c.MulOpts("qcd", x, MulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Tuning("qcd")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured == nil {
		t.Fatal("tuning report has no measured roofline")
	}
	m := rep.Measured
	if m.Sweeps == 0 || m.SweepSeconds <= 0 || m.ModeledBytes <= 0 {
		t.Fatalf("empty roofline accumulator after 10 muls: %+v", m)
	}
	if m.AchievedGBs <= 0 {
		t.Fatalf("achieved bandwidth not positive: %+v", m)
	}
	if rep.RooflineGBs <= 0 {
		t.Fatalf("no reference bandwidth in report: %+v", rep)
	}
	wantRatio := m.AchievedGBs / rep.RooflineGBs
	if diff := m.ModelRatio - wantRatio; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("model ratio %g inconsistent with achieved/reference %g", m.ModelRatio, wantRatio)
	}
}

// TestSolveIterTraces runs a CG session and checks per-iteration traces
// land in the ring with sweep+blas spans tiling each iteration.
func TestSolveIterTraces(t *testing.T) {
	s := New(obsConfig())
	defer s.Close()
	c := s
	// SPD tridiagonal matrix.
	mm := "%%MatrixMarket matrix coordinate real general\n4 4 10\n" +
		"1 1 2\n2 2 2\n3 3 2\n4 4 2\n1 2 -1\n2 1 -1\n2 3 -1\n3 2 -1\n3 4 -1\n4 3 -1\n"
	m, err := spmv.ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register("spd", "spd", m); err != nil {
		t.Fatal(err)
	}
	st, err := c.SolveOpts("spd", SolveRequest{Method: "cg", B: []float64{1, 1, 1, 1}, Tol: 1e-10}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SolveStatus(st.SID, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	var iters int
	for _, trace := range s.Traces() {
		if trace.Op != "cg_iter" {
			continue
		}
		iters++
		if len(trace.Spans) != 2 || trace.Spans[0].Name != "solve_sweep" || trace.Spans[1].Name != "blas" {
			t.Fatalf("cg_iter trace spans wrong: %+v", trace.Spans)
		}
		if got := trace.Spans[0].Dur + trace.Spans[1].Dur; got != trace.Wall {
			t.Fatalf("cg_iter spans sum %v != wall %v", got, trace.Wall)
		}
	}
	if iters == 0 {
		t.Fatal("no cg_iter traces recorded")
	}
	lat := c.Latency()
	if hs, ok := lat.Stage["solve_iter"]; !ok || hs.Count == 0 {
		t.Fatalf("solve_iter stage histogram missing: %v", lat.Stage)
	}
}

// TestHealthzAndBuildinfo exercises the liveness and buildinfo endpoints.
func TestHealthzAndBuildinfo(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hzResp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz := decode[map[string]any](t, hzResp)
	if hz["status"] != "ok" {
		t.Fatalf("healthz %v", hz)
	}
	if _, ok := hz["uptime_s"].(float64); !ok {
		t.Fatalf("healthz has no uptime: %v", hz)
	}

	biResp, err := http.Get(ts.URL + "/v1/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	bi := decode[buildInfo](t, biResp)
	if bi.GoVersion == "" || bi.GoVersion == "unknown" {
		t.Fatalf("buildinfo has no Go version: %+v", bi)
	}
}

// TestObsDisabled checks ObsSample=0 turns the whole layer off — no
// latency section, no traces — while /metrics stays parser-valid.
func TestObsDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ObsSample = 0
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := registerTiny(t, ts.URL)
	resp := postJSON(t, ts.URL+"/v1/matrices/"+id+"/mul", mulRequest{X: []float64{1, 2, 3}})
	resp.Body.Close()

	stResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[StatsReport](t, stResp)
	if st.Latency != nil {
		t.Fatalf("latency section present with obs disabled: %+v", st.Latency)
	}
	trResp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	tr := decode[tracesResponse](t, trResp)
	if tr.Sample != 0 || len(tr.Traces) != 0 {
		t.Fatalf("traces present with obs disabled: %+v", tr)
	}
	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	if _, err := obs.ParseExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("/metrics invalid with obs disabled: %v", err)
	}
	if strings.Contains(string(body), "spmv_http_request_duration_seconds") {
		t.Error("latency histograms exposed with obs disabled")
	}
}

// TestRooflineResetsOnPromotion checks the per-generation attribution: a
// recompaction promotes a new generation with a fresh accumulator, so its
// roofline starts from zero sweeps.
func TestRooflineResetsOnPromotion(t *testing.T) {
	cfg := obsConfig()
	cfg.MaxBatch = 8
	s := New(cfg)
	defer s.Close()
	c := s
	info, err := c.RegisterSuite("qcd", "QCD", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, info.Cols)
	for i := 0; i < 12; i++ {
		if _, err := c.MulOpts("qcd", x, MulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Tuning("qcd")
	if err != nil {
		t.Fatal(err)
	}
	if before.Measured.Sweeps == 0 {
		t.Fatal("no sweeps measured before promotion")
	}
	if _, err := s.Patch("qcd", []Delta{{Op: "add", Row: 0, Col: 0, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Recompact("qcd"); err != nil {
		t.Fatal(err)
	}
	after, err := c.Tuning("qcd")
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation == before.Generation {
		t.Fatal("promotion did not bump the generation")
	}
	if after.Measured.Sweeps != 0 {
		t.Fatalf("promoted generation inherited %d sweeps; want a fresh accumulator", after.Measured.Sweeps)
	}
}
