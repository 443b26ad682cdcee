package server

import (
	"net/http"

	spmv "repro"
)

// Transport is one shard member node as seen by the coordinator: the minimal
// surface the scatter/gather layer needs — register a row band, multiply
// against it, sweep it for a solver session, snapshot its counters.
// LocalTransport is an in-process member, HTTPTransport a remote spmv-serve.
type Transport interface {
	// Name labels the member in topology and stats views.
	Name() string
	// Register ingests a matrix band under the given id on the member and
	// returns the member's view of it (dimensions are validated by the
	// coordinator against the band it sent). Bands are always registered
	// with general storage — a band that happened to be symmetric would
	// otherwise pick a different summation order than its twin rows in a
	// single-node serve, breaking the fleet's bitwise topology
	// invariance.
	Register(id, name string, m *spmv.Matrix) (MatrixInfo, error)
	// Mul computes y = A·x against a previously registered band.
	Mul(id string, x []float64) ([]float64, error)
	// Sweep is a Mul whose result the member writes into the caller's y
	// (the band's rows long), which it overwrites: a solver session's band
	// sweep, with Mul's bits, refused for what Mul refuses.
	Sweep(id string, y, x []float64) error
	// Unregister tears down a previously registered band on the member,
	// releasing its serving snapshot. Unknown ids are an error (the
	// coordinator treats it as best-effort cleanup).
	Unregister(id string) error
	// Stats snapshots the member's serving counters for the cluster rollup.
	Stats() (Stats, error)
}

// LocalTransport adapts an in-process Server to the Transport interface.
// The member keeps its full serving stack — tuned snapshot, adaptive
// batcher, sweep pool — so concurrent scattered sub-requests against one
// band still coalesce into fused multi-RHS sweeps on the member.
type LocalTransport struct {
	label string
	s     *Server
}

// NewLocalTransport wraps a member server under the given label.
func NewLocalTransport(label string, s *Server) *LocalTransport {
	return &LocalTransport{label: label, s: s}
}

// Name returns the member label.
func (t *LocalTransport) Name() string { return t.label }

// Register ingests the band on the member server, pinned to general
// storage (see Transport.Register).
func (t *LocalTransport) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	return t.s.RegisterOpts(id, name, m, RegisterOptions{Symmetric: new(bool)}) // a pointer to false
}

// Mul multiplies against the member's band.
func (t *LocalTransport) Mul(id string, x []float64) ([]float64, error) {
	return t.s.MulOpts(id, x, MulOptions{})
}

// Sweep is the member's Mul front door with a destination: the band
// sweep joins the member's batcher like any Mul, so it can fuse with
// concurrent sweeps of the band, and its result is written straight into y.
// An HTTP member serves it the same way.
func (t *LocalTransport) Sweep(id string, y, x []float64) error {
	_, err := t.s.mulOpts(id, x, y, MulOptions{}, nil)
	return err
}

// Unregister tears down the member's band.
func (t *LocalTransport) Unregister(id string) error {
	_, err := t.s.DeleteMatrix(id)
	return err
}

// Stats snapshots the member's counters.
func (t *LocalTransport) Stats() (Stats, error) { return t.s.Stats(), nil }

// HTTPTransport talks to a remote spmv-serve member over its v1 HTTP API.
// It is an HTTPClient wearing the Transport interface: vectors and bands
// cross as binary frames (float64 values survive the wire bit-exactly, so
// sharded results stay bitwise identical to single-node serving), and
// member errors come back as the sentinels their envelopes name.
type HTTPTransport struct{ hc *HTTPClient }

// NewHTTPTransport returns a transport for the member at base (scheme and
// host:port). A nil client gets a 60-second timeout — without one, a
// wedged member that accepts TCP but never answers would block cluster
// Muls and stats polls forever, and the coordinator's retry/eject
// machinery (which acts on returned errors) would never fire. Pass an
// explicit client to tune the timeout, e.g. for very large band uploads.
func NewHTTPTransport(base string, client *http.Client) *HTTPTransport {
	return &HTTPTransport{hc: NewHTTPClient(base, client)}
}

// Name returns the member's base URL.
func (t *HTTPTransport) Name() string { return t.hc.base }

// Register ships the band as one binary frame and registers it remotely,
// pinned to general storage (see Transport.Register).
func (t *HTTPTransport) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	return t.hc.registerBand(id, name, m)
}

// Mul multiplies against the member's band.
func (t *HTTPTransport) Mul(id string, x []float64) ([]float64, error) {
	return t.hc.MulOpts(id, x, MulOptions{})
}

// Sweep is a Mul whose result frame is read straight into y.
func (t *HTTPTransport) Sweep(id string, y, x []float64) error {
	_, err := t.hc.mul(id, x, MulOptions{}, y)
	return err
}

// Unregister deletes the band on the remote member.
func (t *HTTPTransport) Unregister(id string) error {
	_, err := t.hc.DeleteMatrix(id)
	return err
}

// Stats fetches the member's counter snapshot.
func (t *HTTPTransport) Stats() (Stats, error) {
	rep, err := t.hc.StatsReport()
	return rep.Stats, err
}
