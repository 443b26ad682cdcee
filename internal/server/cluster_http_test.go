package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/sched"
)

// TestClusterHTTPEndToEnd runs a full sharded topology over real HTTP:
// member spmv-serve nodes behind httptest servers, an HTTPTransport per
// member, and a front server with the coordinator attached. Results must
// match in-process single-node serving bit for bit (bands and vectors
// cross the member hop as raw float64 frames).
func TestClusterHTTPEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spins four HTTP servers")
	}
	const members = 2
	transports := make([]Transport, members)
	for i := range transports {
		ms := New(DefaultConfig())
		t.Cleanup(ms.Close)
		mts := httptest.NewServer(ms.Handler())
		t.Cleanup(mts.Close)
		transports[i] = NewHTTPTransport(mts.URL, nil)
	}
	cluster, err := NewCluster(transports, ClusterConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := New(DefaultConfig())
	defer front.Close()
	front.AttachCluster(cluster)
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	// Register an LP twin sharded 2 ways via the front's HTTP API.
	resp := postJSON(t, fts.URL+"/v1/matrices", registerRequest{
		ID: "lp", Suite: "LP", Scale: 0.02, Seed: 7, Shards: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sharded register status %d", resp.StatusCode)
	}
	info := decode[ShardedMatrixInfo](t, resp)
	if info.Shards != 2 || info.Replicas != 2 || len(info.Bands) != 2 {
		t.Fatalf("sharded info %+v", info)
	}

	// Single-node reference through the plain serving path.
	m, err := spmv.GenerateSuite("LP", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	single := New(DefaultConfig())
	defer single.Close()
	if _, err := single.Register("lp", "LP", m); err != nil {
		t.Fatal(err)
	}
	x := randVec(info.Cols, 3)
	want, err := single.MulOpts("lp", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}

	resp = postJSON(t, fts.URL+"/v1/matrices/lp/mul", mulRequest{X: x})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded mul status %d", resp.StatusCode)
	}
	got := decode[mulResponse](t, resp).Y
	if len(got) != len(want) {
		t.Fatalf("len %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %x over HTTP, single-node %x", i, got[i], want[i])
		}
	}

	// The listing shows the sharded matrix; /v1/cluster shows topology;
	// /v1/stats carries the rollup.
	listResp, err := http.Get(fts.URL + "/v1/matrices")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]MatrixInfo](t, listResp)
	if len(list) != 1 || list[0].Kernel != "sharded" || list[0].Replicas != 2 {
		t.Fatalf("list %+v", list)
	}

	topoResp, err := http.Get(fts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	topo := decode[clusterResponse](t, topoResp)
	if len(topo.Members) != members || len(topo.Matrices) != 1 {
		t.Fatalf("topology %+v", topo)
	}

	stResp, err := http.Get(fts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[StatsReport](t, stResp)
	if st.Cluster == nil {
		t.Fatal("stats missing cluster rollup")
	}
	if st.Cluster.Requests != 1 || st.Cluster.Scatters != 2 {
		t.Errorf("cluster requests=%d scatters=%d, want 1/2", st.Cluster.Requests, st.Cluster.Scatters)
	}
	// 2 bands x 2 replicas registered across the fleet.
	if st.Cluster.Aggregate.Registered != 4 {
		t.Errorf("aggregate registered %d, want 4", st.Cluster.Aggregate.Registered)
	}

	// The metrics endpoint exposes the cluster counters.
	metResp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metResp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := metResp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "spmv_cluster_requests_total 1") {
		t.Error("metrics missing spmv_cluster_requests_total")
	}

	// A non-cluster server 404s /v1/cluster.
	plain := httptest.NewServer(single.Handler())
	defer plain.Close()
	r, err := http.Get(plain.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("plain /v1/cluster status %d, want 404", r.StatusCode)
	}
}

// TestClusterHTTPRecovery is the satellite-1 regression end-to-end: a
// member served over a real HTTP transport dies, is ejected, heals, and
// gets traffic back through the half-open probe loop — recovery must
// work across the wire, not just on in-process transports.
func TestClusterHTTPRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spins HTTP servers")
	}
	const members = 2
	transports := make([]Transport, members)
	var down atomic.Bool
	for i := range transports {
		ms := New(DefaultConfig())
		t.Cleanup(ms.Close)
		h := ms.Handler()
		i := i
		mts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 0 && down.Load() && strings.HasSuffix(r.URL.Path, "/mul") {
				http.Error(w, "member outage", http.StatusBadGateway)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(mts.Close)
		transports[i] = NewHTTPTransport(mts.URL, nil)
	}
	cluster, err := NewCluster(transports, ClusterConfig{
		Replicas: 2, EjectAfter: 2, ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := spmv.GenerateSuite("LP", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cluster.RegisterSharded("lp", "LP", m, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(info.Cols, 3)

	down.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for !cluster.members[0].ejected.Load() {
		if _, err := cluster.MulOpts("lp", x, ClusterMulOptions{}); err != nil {
			t.Fatal(err) // the healthy replica must absorb every request
		}
		if time.Now().After(deadline) {
			t.Fatal("member never ejected")
		}
	}

	down.Store(false)
	before := cluster.members[0].requests.Load()
	for cluster.members[0].ejected.Load() || cluster.members[0].requests.Load() == before {
		if _, err := cluster.MulOpts("lp", x, ClusterMulOptions{}); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("healed member never returned to rotation")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cluster.Stats().Recoveries == 0 {
		t.Error("recovery not counted")
	}
}

// TestShardedMulAdmission: the cluster front charges the tenant bucket
// before fanning out — an exhausted tenant gets the uniform envelope
// with 429, a Retry-After header, and the structured tenant and
// retry_after_ms fields.
func TestShardedMulAdmission(t *testing.T) {
	cluster, _ := newLocalCluster(t, 2, 1)
	cfg := DefaultConfig()
	cfg.Sched = sched.Config{
		Tenants: map[string]sched.TenantLimit{
			"limited": {BytesPerSec: 1, Burst: 1},
		},
	}
	front := New(cfg)
	defer front.Close()
	front.AttachCluster(cluster)
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	resp := postJSON(t, fts.URL+"/v1/matrices", registerRequest{
		ID: "lp", Suite: "LP", Scale: 0.02, Seed: 7, Shards: 2,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sharded register status %d", resp.StatusCode)
	}
	info := decode[ShardedMatrixInfo](t, resp)
	x := randVec(info.Cols, 3)

	// First request over-burst admits against the full bucket; the second
	// must reject before any band fans out.
	resp = postJSON(t, fts.URL+"/v1/matrices/lp/mul", mulRequest{X: x, Tenant: "limited"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first sharded mul status %d", resp.StatusCode)
	}
	resp.Body.Close()
	scatters := cluster.Stats().Scatters
	resp = postJSON(t, fts.URL+"/v1/matrices/lp/mul", mulRequest{X: x, Tenant: "limited"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted tenant status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After header = %q, want a positive whole-second value", ra)
	}
	e := decode[errorResponse](t, resp)
	if e.Error.Code != "admission_limited" || e.Error.Tenant != "limited" || e.Error.RetryAfterMS <= 0 {
		t.Errorf("envelope = %+v, want admission_limited with tenant and retry_after_ms", e.Error)
	}
	if got := cluster.Stats().Scatters; got != scatters {
		t.Errorf("rejected request fanned out: scatters %d -> %d", scatters, got)
	}
	// Unmetered tenants keep flowing through the same sharded path.
	resp = postJSON(t, fts.URL+"/v1/matrices/lp/mul", mulRequest{X: x, Tenant: "free"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unmetered tenant status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRetryAfterRoundTrip is the satellite-2 regression: the HTTP client
// must rebuild AdmissionError from the envelope body — preserving the
// tenant and a sub-second retry estimate — and only fall back to the
// whole-second Retry-After header (then to one second) when the body
// carries no estimate.
func TestRetryAfterRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		body   errorResponse
		header string
		want   time.Duration
		tenant string
	}{
		{
			name: "sub-second body estimate wins",
			body: errorResponse{Error: errorBody{
				Code: "admission_limited", Message: "rate limited",
				Tenant: "t1", RetryAfterMS: 250,
			}},
			header: "1", want: 250 * time.Millisecond, tenant: "t1",
		},
		{
			name: "header fallback for old servers",
			body: errorResponse{Error: errorBody{
				Code: "admission_limited", Message: "rate limited", Tenant: "t2",
			}},
			header: "3", want: 3 * time.Second, tenant: "t2",
		},
		{
			name: "one-second last resort",
			body: errorResponse{Error: errorBody{
				Code: "admission_limited", Message: "rate limited",
			}},
			want: time.Second,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				json.NewEncoder(w).Encode(tc.body)
			}))
			defer ts.Close()
			hc := NewHTTPClient(ts.URL, nil)
			_, err := hc.MulOpts("m", []float64{1}, MulOptions{Tenant: tc.tenant})
			var ae *AdmissionError
			if !errors.As(err, &ae) {
				t.Fatalf("error %v did not unwrap to AdmissionError", err)
			}
			if ae.RetryAfter != tc.want || ae.Tenant != tc.tenant {
				t.Errorf("AdmissionError = {tenant %q, retry %v}, want {%q, %v}",
					ae.Tenant, ae.RetryAfter, tc.tenant, tc.want)
			}
		})
	}
}

// TestShardsWithoutCluster: a plain server rejects sharded registration.
func TestShardsWithoutCluster(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/matrices", registerRequest{
		Rows: 2, Cols: 2, Entries: [][3]float64{{0, 0, 1}, {1, 1, 2}}, Shards: 2,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shards on plain server: status %d, want 400", resp.StatusCode)
	}
}

// TestShardedSymmetricRejected: "symmetric": true cannot be honored on
// the sharded path (bands are stored general), so the combination must be
// a 400, not silently ignored.
func TestShardedSymmetricRejected(t *testing.T) {
	members := make([]Transport, 2)
	for i := range members {
		ms := New(DefaultConfig())
		defer ms.Close()
		members[i] = NewLocalTransport("m", ms)
	}
	cluster, err := NewCluster(members, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	front := New(DefaultConfig())
	defer front.Close()
	front.AttachCluster(cluster)
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	symTrue := true
	resp := postJSON(t, ts.URL+"/v1/matrices", registerRequest{
		ID: "s", Rows: 4, Cols: 4, Shards: 2, Symmetric: &symTrue,
		Entries: [][3]float64{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 3, 4}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("symmetric+shards status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// symmetric:false with shards is fine.
	symFalse := false
	resp = postJSON(t, ts.URL+"/v1/matrices", registerRequest{
		ID: "s", Rows: 4, Cols: 4, Shards: 2, Symmetric: &symFalse,
		Entries: [][3]float64{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 3, 4}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("general sharded register status %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()
}
