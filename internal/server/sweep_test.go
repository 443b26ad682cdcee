package server

import (
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	spmv "repro"
)

// sessionTransport sweeps the way a local solver session's iteration does:
// a session item (its own y and cancel) through the entry's servable mul,
// past the front door — no request counted, no tenant admission.
type sessionTransport struct{ *LocalTransport }

func (t sessionTransport) Sweep(id string, y, x []float64) error {
	m, err := t.s.lookup(id)
	if err != nil {
		return err
	}
	_, err = m.mul(t.s, &pending{x: x, y: y, cancel: make(chan struct{})}, t.s.cfg.Sched.DefaultClass, "")
	return err
}

// TestTransportSweepParity: Transport.Sweep refuses what Transport.Mul
// refuses, with the same classification, and answers Mul's bits — overlay
// pass included — on both transports, counting in the member's Stats like
// the Mul it is: the local and the HTTP Sweep add the same to Requests and
// Sweeps. A local solver session's sweep, the third input, answers the
// same bits and counts one sweep and no request.
func TestTransportSweepParity(t *testing.T) {
	const rows, cols = 40, 56
	cfg := DefaultConfig()
	cfg.RecompactThreshold = -1 // the patched band keeps its overlay
	ms := New(cfg)
	defer ms.Close()
	mts := httptest.NewServer(ms.Handler())
	defer mts.Close()
	lt := NewLocalTransport("member", ms)
	band := testMatrix(t, rows, cols, 300, 7)
	if _, err := lt.Register("band", "band", band); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Patch("band", []Delta{
		{Op: "set", Row: 3, Col: 5, Val: 1.25},
		{Op: "add", Row: 3, Col: 5, Val: -0.5},
		{Op: "del", Row: 17, Col: 17},
		{Op: "set", Row: rows - 1, Col: cols - 1, Val: -7},
	}); err != nil {
		t.Fatal(err)
	}
	if info := ms.Matrices()[0]; info.OverlayRows == 0 {
		t.Fatalf("the patched band serves no overlay: %+v", info)
	}
	// A registered entry whose first snapshot is not published yet.
	if _, err := ms.reg.register("compiling", "c", band); err != nil {
		t.Fatal(err)
	}

	x := testVector(cols, 8)
	withX := func(i int, v float64) []float64 {
		bad := append([]float64(nil), x...)
		bad[i] = v
		return bad
	}
	type delta struct{ requests, sweeps uint64 }
	moved := map[string]delta{}
	for _, tc := range []struct {
		name string
		tr   Transport
		want delta
	}{
		{"local", lt, delta{1, 1}},
		{"http", NewHTTPTransport(mts.URL, nil), delta{1, 1}},
		{"session", sessionTransport{lt}, delta{0, 1}},
	} {
		name, tr := tc.name, tc.tr
		t.Run(name, func(t *testing.T) {
			want, err := tr.Mul("band", x)
			if err != nil {
				t.Fatal(err)
			}
			before := ms.Stats()
			got := make([]float64, rows)
			for i := range got {
				got[i] = math.NaN() // Sweep overwrites, it does not accumulate
			}
			if err := tr.Sweep("band", got, x); err != nil {
				t.Fatal(err)
			}
			mustBitwise(t, "Sweep vs Mul", got, want)
			after := ms.Stats()
			moved[name] = delta{after.Requests - before.Requests, after.Sweeps - before.Sweeps}
			if moved[name] != tc.want {
				t.Errorf("one Sweep moved the member's (requests, sweeps) by %+v, want %+v", moved[name], tc.want)
			}
			if name == "session" {
				return // validated at SolveOpts, not per sweep
			}

			for _, tc := range []struct {
				name     string
				id       string
				y, x, mx []float64 // mx is the x of the Mul that must fail alike
			}{
				{"wrong len(x)", "band", got, x[:cols-1], x[:cols-1]},
				{"wrong len(y)", "band", got[:rows-1], x, x[:cols-1]},
				{"NaN in x", "band", got, withX(cols/2, math.NaN()), withX(cols/2, math.NaN())},
				{"Inf in x", "band", got, withX(0, math.Inf(-1)), withX(0, math.Inf(-1))},
				{"unknown sub-id", "nope", got, x, x},
				{"still compiling", "compiling", got, x, x},
			} {
				sweepErr := tr.Sweep(tc.id, tc.y, tc.x)
				_, mulErr := tr.Mul(tc.id, tc.mx)
				if sweepErr == nil || mulErr == nil {
					t.Errorf("%s: Sweep err = %v, Mul err = %v, want both refused", tc.name, sweepErr, mulErr)
					continue
				}
				if sc, mc := sentinelClass(sweepErr), sentinelClass(mulErr); sc != mc {
					t.Errorf("%s: Sweep is %q (%v), Mul is %q (%v)", tc.name, sc, sweepErr, mc, mulErr)
				}
			}
		})
	}
	if moved["local"] != moved["http"] {
		t.Errorf("a local Sweep moved the member's (requests, sweeps) by %+v, an HTTP Sweep by %+v", moved["local"], moved["http"])
	}
}

// shardedFront builds a front server over a cluster of the given members
// with m registered as "m" in two bands.
func shardedFront(t *testing.T, m *spmv.Matrix, members []Transport, cfg ClusterConfig) (*Server, *Cluster) {
	t.Helper()
	c, err := NewCluster(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := New(DefaultConfig())
	t.Cleanup(front.Close)
	front.AttachCluster(c)
	if _, err := c.RegisterSharded("m", "m", m, 2); err != nil {
		t.Fatal(err)
	}
	return front, c
}

// TestShardedSolveFaults: member faults during a sharded solve either fail
// over without moving a bit of the trajectory or fail the session — a
// session never iterates on a wrong vector. Runs under -race in CI.
func TestShardedSolveFaults(t *testing.T) {
	m := poissonMatrix(t, 20)
	n, _ := m.Dims()
	req := SolveRequest{Method: "cg", B: testVector(n, 4), Tol: 1e-8, MaxIters: 2000}
	member := func(name string) Transport {
		s := New(DefaultConfig())
		t.Cleanup(s.Close)
		return NewLocalTransport(name, s)
	}
	solve := func(front *Server) SolveStatus {
		t.Helper()
		st, err := front.SolveOpts("m", req, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return waitDone(t, front, st.SID)
	}

	inline := func(c *Cluster) bool {
		t.Helper()
		e, err := c.entry("m")
		if err != nil {
			t.Fatal(err)
		}
		return e.sweptInline()
	}

	// Small bands on in-process members: the session sweeps them in line.
	clean, cc := shardedFront(t, m, []Transport{member("node0"), member("node1")}, ClusterConfig{Replicas: 2})
	if !inline(cc) {
		t.Error("a 400-row grid on LocalTransport members is not swept in line")
	}
	want := solve(clean)
	if want.State != "converged" {
		t.Fatalf("fault-free solve ended %s: %s", want.State, want.Error)
	}

	// Every third Sweep on node0 fails: never EjectAfter in a row, so the
	// member stays in rotation and keeps faulting for the whole solve.
	flap := &alternatingTransport{Transport: member("node0"), period: 3}
	front, c := shardedFront(t, m, []Transport{flap, member("node1")}, ClusterConfig{Replicas: 2})
	if inline(c) {
		t.Error("a transport that is not a LocalTransport is swept in line")
	}
	got := solve(front)
	if got.State != "converged" || got.Iters != want.Iters {
		t.Fatalf("solve over a flapping member ended %s after %d iterations (%s), fault-free converged in %d",
			got.State, got.Iters, got.Error, want.Iters)
	}
	mustBitwise(t, "history after failovers vs fault-free", got.History, want.History)
	mustBitwise(t, "x after failovers vs fault-free", got.X, want.X)
	if st := c.Stats(); st.Failovers == 0 || st.Retries == 0 {
		t.Errorf("the flapping member was never retried around: %+v", st)
	}
	if flap.calls.Load() == 0 {
		t.Error("session sweeps slipped past the fault injection")
	}

	// A member that answers a short band fails the sweep as a member fault.
	short, sc := shardedFront(t, m, []Transport{&shrinkTransport{member("short")}}, ClusterConfig{})
	e, err := sc.entry("m")
	if err != nil {
		t.Fatal(err)
	}
	err = sc.fanOut(e, make([]float64, n), req.B, "", true)
	if !errors.Is(err, ErrMemberFault) {
		t.Errorf("short band: fan-out err = %v, want ErrMemberFault", err)
	}
	if st := solve(short); st.State != stateFailed || !strings.Contains(st.Error, ErrMemberFault.Error()) {
		t.Errorf("solve over a short-band member ended %s (%q), want failed with a member fault", st.State, st.Error)
	}
}
