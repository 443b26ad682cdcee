package server

import (
	"net/http/httptest"
	"testing"

	spmv "repro"
)

// lpTwin is the LP suite twin at scale 0.1 — a 110 000-column x and a
// 428-row y, the request shape of e2ebench's http-wide workload.
func lpTwin(b *testing.B) *spmv.Matrix {
	m, err := spmv.GenerateSuite("LP", 0.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkHTTPMulFrame is one LP-shaped mul over loopback HTTP at one
// request in flight: HTTPClient sends x as a vector frame, the server
// reads it, sweeps and answers y as a frame, the client reads y. B/op and
// allocs/op count both ends of the wire.
func BenchmarkHTTPMulFrame(b *testing.B) {
	s := New(DefaultConfig())
	b.Cleanup(s.Close)
	m := lpTwin(b)
	if _, err := s.Register("lp", "lp", m); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	hc := NewHTTPClient(ts.URL, nil)
	_, cols := m.Dims()
	x := testVector(cols, 7)
	b.SetBytes(int64(8 * cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hc.MulOpts("lp", x, MulOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPBandSweep is one solver-session sweep of the LP twin
// sharded over two members behind loopback HTTP: the coordinator's
// session fan-out, each band's HTTPTransport.Sweep sending the whole x to
// its member and taking the band's rows of y back.
func BenchmarkHTTPBandSweep(b *testing.B) {
	members := make([]Transport, 2)
	for i := range members {
		ms := New(DefaultConfig())
		b.Cleanup(ms.Close)
		mts := httptest.NewServer(ms.Handler())
		b.Cleanup(mts.Close)
		members[i] = NewHTTPTransport(mts.URL, nil)
	}
	c, err := NewCluster(members, ClusterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	m := lpTwin(b)
	if _, err := c.RegisterSharded("lp", "lp", m, 2); err != nil {
		b.Fatal(err)
	}
	e, err := c.entry("lp")
	if err != nil {
		b.Fatal(err)
	}
	rows, cols := m.Dims()
	x, y := testVector(cols, 7), make([]float64, rows)
	b.SetBytes(int64(8 * cols))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.fanOut(e, y, x, "", true); err != nil {
			b.Fatal(err)
		}
	}
}
