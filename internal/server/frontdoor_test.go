package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

// ledgerDelta is what one request did to the admission ledgers of its
// tenant and of every class, with byte amounts in units of the request's
// modeled cost so a local and a sharded matrix (whose costs differ)
// compare equal.
type ledgerDelta struct {
	Served, Rejected               uint64
	ServedCosts, RejectedCosts     float64
	QueuedBytes                    int64
	BucketSpentCosts               float64
	ClassServed, ClassRejected     uint64
	ClassExpired                   uint64
	ClassServedCosts, ClassQueuedB float64
}

func ledgerOf(s *Server, tenant string) (TenantStats, ClassStats) {
	rep := s.Admission()
	var all ClassStats
	for _, cs := range rep.Classes {
		all.ServedRequests += cs.ServedRequests
		all.ServedBytes += cs.ServedBytes
		all.RejectedRequests += cs.RejectedRequests
		all.ExpiredRequests += cs.ExpiredRequests
		all.QueuedBytes += cs.QueuedBytes
	}
	return rep.Tenants[tenant], all
}

func ledgerDiff(t0, t1 TenantStats, c0, c1 ClassStats, cost int64) ledgerDelta {
	per := func(b int64) float64 { return math.Round(float64(b)/float64(cost)*1e6) / 1e6 }
	d := ledgerDelta{
		Served: t1.ServedRequests - t0.ServedRequests, Rejected: t1.RejectedRequests - t0.RejectedRequests,
		ServedCosts: per(t1.ServedBytes - t0.ServedBytes), RejectedCosts: per(t1.RejectedBytes - t0.RejectedBytes),
		QueuedBytes: t1.QueuedBytes - t0.QueuedBytes,
		ClassServed: c1.ServedRequests - c0.ServedRequests, ClassRejected: c1.RejectedRequests - c0.RejectedRequests,
		ClassExpired:     c1.ExpiredRequests - c0.ExpiredRequests,
		ClassServedCosts: per(c1.ServedBytes - c0.ServedBytes), ClassQueuedB: float64(c1.QueuedBytes - c0.QueuedBytes),
	}
	if t0.BucketBalance != nil && t1.BucketBalance != nil {
		// Whole costs: the 1 B/s refill between the two reads is noise.
		d.BucketSpentCosts = math.Round(float64(*t0.BucketBalance-*t1.BucketBalance) / float64(cost))
	}
	return d
}

// sentinelClass names the first errorTable sentinel err matches.
func sentinelClass(err error) string {
	for _, row := range errorTable {
		if errors.Is(err, row.err) {
			return row.code
		}
	}
	return "unclassified"
}

// TestFrontDoorParity: every way the front door refuses a request behaves
// the same for a locally registered matrix and a K=2 sharded one — the
// same sentinel, message shape, HTTP status and envelope code, and the
// same effect on the admission ledgers. Refusals decided before execution
// (shape, class, every solve validation) and a refused non-finite x leave
// the ledgers untouched, bucket balance included.
func TestFrontDoorParity(t *testing.T) {
	const n = 60
	cfg := DefaultConfig()
	cfg.Sched = sched.Config{Enabled: true, Tenants: map[string]sched.TenantLimit{}}
	for _, side := range []string{"local", "sharded"} {
		cfg.Sched.Tenants["metered-"+side] = sched.TenantLimit{BytesPerSec: 1, Burst: 1 << 40}
		cfg.Sched.Tenants["starved-"+side] = sched.TenantLimit{BytesPerSec: 1, Burst: 1}
	}
	s := New(cfg)
	defer s.Close()
	members := make([]Transport, 2)
	for i := range members {
		ms := New(DefaultConfig())
		defer ms.Close()
		members[i] = NewLocalTransport(fmt.Sprintf("node%d", i), ms)
	}
	c, err := NewCluster(members, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCluster(c)
	m := testMatrix(t, n, n, 500, 3) // square and asymmetric
	if _, err := s.Register("local", "m", m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSharded("sharded", "m", m, 2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	x := testVector(n, 5)
	nan := append([]float64(nil), x...)
	nan[n/2] = math.NaN()
	// The starved tenants' one over-burst admission is spent here, so the
	// case below meets an empty bucket on both sides.
	for _, side := range []string{"local", "sharded"} {
		if _, err := s.MulOpts(side, x, MulOptions{Tenant: "starved-" + side}); err != nil {
			t.Fatal(err)
		}
	}

	type outcome struct {
		class, message string
		status         int
		code           string
		ledger         ledgerDelta
	}
	digits := regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ms|s)?`)
	mulCase := func(tenant string, x []float64, opts MulOptions) func(side string) (error, *http.Response) {
		return func(side string) (error, *http.Response) {
			opts.Tenant = tenant + "-" + side
			_, err := s.MulOpts(side, x, opts)
			if opts.Deadline != 0 {
				return err, nil // deadline_ms cannot express an already expired deadline
			}
			q := url.Values{"tenant": {opts.Tenant}}
			if opts.Class != "" {
				q.Set("class", opts.Class)
			}
			resp, herr := http.Post(ts.URL+"/v1/matrices/"+side+"/mul?"+q.Encode(), mediaF64LE,
				bytes.NewReader(appendF64LE(nil, x)))
			if herr != nil {
				t.Fatal(herr)
			}
			return err, resp
		}
	}
	solveCase := func(req SolveRequest) func(side string) (error, *http.Response) {
		return func(side string) (error, *http.Response) {
			req.Tenant = "metered-" + side
			_, err := s.SolveOpts(side, req, SolveOptions{})
			body, _ := json.Marshal(req)
			resp, herr := http.Post(ts.URL+"/v1/matrices/"+side+"/solve", mediaJSON, bytes.NewReader(body))
			if herr != nil {
				t.Fatal(herr)
			}
			return err, resp
		}
	}
	b := testVector(n, 6)
	cases := []struct {
		name      string
		tenant    string // ledger to watch (suffixed with the side)
		run       func(side string) (error, *http.Response)
		wantClass string
		wantCode  int
		touches   bool // the refusal legitimately moves the ledgers
	}{
		{"wrong len(x)", "metered", mulCase("metered", x[:n-1], MulOptions{}), "unclassified", 400, false},
		{"NaN in x", "metered", mulCase("metered", nan, MulOptions{}), "invalid_argument", 400, false},
		{"unknown class", "metered", mulCase("metered", x, MulOptions{Class: "platinum"}), "unclassified", 400, false},
		{"expired deadline", "metered", mulCase("metered", x, MulOptions{Deadline: time.Nanosecond}), "deadline_exceeded", 504, true},
		{"admission-limited tenant", "starved", mulCase("starved", x, MulOptions{}), "admission_limited", 429, true},
		{"cg on an asymmetric matrix", "metered", solveCase(SolveRequest{Method: "cg", B: b}), "not_symmetric", 400, false},
		{"negative tol", "metered", solveCase(SolveRequest{Method: "power", Tol: -1}), "unclassified", 400, false},
		{"negative max_iters", "metered", solveCase(SolveRequest{Method: "power", MaxIters: -1}), "unclassified", 400, false},
		{"over-cap max_iters", "metered", solveCase(SolveRequest{Method: "power", MaxIters: MaxSolveIters + 1}), "unclassified", 400, false},
		{"power with b", "metered", solveCase(SolveRequest{Method: "power", B: b}), "unclassified", 400, false},
		{"wrong len(b)", "metered", solveCase(SolveRequest{Method: "cg", B: b[:n-1]}), "unclassified", 400, false},
		{"wrong len(x0)", "metered", solveCase(SolveRequest{Method: "power", X0: b[:n-1]}), "unclassified", 400, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]outcome
			for i, side := range []string{"local", "sharded"} {
				sv, err := s.lookup(side)
				if err != nil {
					t.Fatal(err)
				}
				cost, _, _ := sv.model()
				tenant := tc.tenant + "-" + side
				t0, c0 := ledgerOf(s, tenant)
				err, resp := tc.run(side)
				t1, c1 := ledgerOf(s, tenant)
				if err == nil {
					t.Fatalf("%s: request was served", side)
				}
				o := outcome{
					class:   sentinelClass(err),
					message: digits.ReplaceAllString(strings.ReplaceAll(err.Error(), side, "ID"), "N"),
					status:  statusOf(err),
					code:    errorCode(statusOf(err), err),
					ledger:  ledgerDiff(t0, t1, c0, c1, cost),
				}
				if resp != nil {
					// The in-process call and its HTTP twin both ran between the
					// two ledger reads, so a touching case shows up twice.
					var env errorResponse
					if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil {
						t.Fatalf("%s: error body is not the envelope: %v", side, derr)
					}
					resp.Body.Close()
					if resp.StatusCode != o.status || env.Error.Code != o.code {
						t.Errorf("%s: HTTP answered %d %q, in-process error maps to %d %q",
							side, resp.StatusCode, env.Error.Code, o.status, o.code)
					}
				}
				got[i] = o
			}
			if got[0] != got[1] {
				t.Errorf("local and sharded differ:\n local   %+v\n sharded %+v", got[0], got[1])
			}
			if got[0].class != tc.wantClass || got[0].status != tc.wantCode {
				t.Errorf("classified %q/%d, want %q/%d", got[0].class, got[0].status, tc.wantClass, tc.wantCode)
			}
			if !tc.touches && got[0].ledger != (ledgerDelta{}) {
				t.Errorf("a refusal that ran nothing moved the ledgers: %+v", got[0].ledger)
			}
			if tc.touches && got[0].ledger == (ledgerDelta{}) {
				t.Errorf("expected the ledgers to record the refusal")
			}
		})
	}
}
