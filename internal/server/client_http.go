// The unified client API: one interface over the serving subsystem that
// both the in-process *Server and the HTTP client implement, with request
// options (tenant, SLO class, deadline) carried as typed structs instead
// of growing positional signatures. Code written against API runs
// unchanged in-process (tests, embedded serving) and over the wire
// (tools, load generators) — examples/loadgen's cg mode drives a session
// through HTTPClient.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	spmv "repro"
)

// API is the versioned request surface of the serving subsystem: the
// options-struct methods shared by the in-process *Server and HTTPClient.
type API interface {
	// RegisterSuite generates and registers a Table 3 suite twin.
	RegisterSuite(id, suite string, scale float64, seed int64) (MatrixInfo, error)
	// MulOpts computes y = A·x under the request options.
	MulOpts(id string, x []float64, opts MulOptions) ([]float64, error)
	// Patch applies one atomic, ordered batch of COO deltas to a
	// registered (non-sharded) matrix.
	Patch(id string, deltas []Delta) (PatchResult, error)
	// DeleteMatrix tears a matrix down: cancels and drains its solver
	// sessions, drops its batchers, and (sharded) unregisters its bands.
	DeleteMatrix(id string) (DeleteResult, error)
	// SolveOpts creates a solver session under the admission options.
	SolveOpts(id string, req SolveRequest, opts SolveOptions) (SolveStatus, error)
	// SolveStatus polls a session, optionally waiting for it to finish.
	SolveStatus(sid string, wait time.Duration) (SolveStatus, error)
	// CancelSolve cancels and removes a session.
	CancelSolve(sid string) (SolveStatus, error)
	// StatsReport snapshots the full stats document (counters, latency,
	// admission, cluster).
	StatsReport() (StatsReport, error)
}

var (
	_ API = (*Server)(nil)
	_ API = (*HTTPClient)(nil)
)

// HTTPClient is the wire implementation of API against a remote
// spmv-serve node. Error responses are mapped back to the server's
// sentinel errors via the envelope's machine-readable code — an
// admission rejection comes back as an *AdmissionError carrying the
// Retry-After estimate, exactly as the in-process path returns it, so
// callers classify failures with errors.Is/As on either transport.
type HTTPClient struct {
	base string
	c    *http.Client
}

// NewHTTPClient returns a client for the server at base (scheme and
// host:port). A nil http.Client gets a 60-second timeout.
func NewHTTPClient(base string, client *http.Client) *HTTPClient {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &HTTPClient{base: strings.TrimRight(base, "/"), c: client}
}

// apiError rebuilds a typed error from one error-envelope response.
func (hc *HTTPClient) apiError(r *http.Response) error {
	detail := fmt.Sprintf("status %d", r.StatusCode)
	var e errorResponse
	if json.NewDecoder(r.Body).Decode(&e) == nil && e.Error.Message != "" {
		detail = e.Error.Message
	}
	if e.Error.Code == "admission_limited" {
		// The envelope body carries the rejection's structured details at
		// full resolution; the Retry-After header (whole seconds, rounded
		// up) is only a fallback for responses from older servers, and a
		// one-second guess the last resort — never a replacement for a
		// sub-second estimate the server did provide.
		ae := &AdmissionError{Tenant: e.Error.Tenant}
		switch {
		case e.Error.RetryAfterMS > 0:
			ae.RetryAfter = time.Duration(e.Error.RetryAfterMS * float64(time.Millisecond))
		default:
			ae.RetryAfter = time.Second
			if secs, err := strconv.Atoi(r.Header.Get("Retry-After")); err == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return fmt.Errorf("server %s: %s: %w", hc.base, detail, ae)
	}
	if sentinel := sentinelByCode(e.Error.Code); sentinel != nil {
		return fmt.Errorf("%w: server %s: %s", sentinel, hc.base, detail)
	}
	return fmt.Errorf("server %s: %s", hc.base, detail)
}

// do runs one JSON round trip: method+path with an optional request
// body, decoding the 2xx response into resp.
func (hc *HTTPClient) do(method, path string, req, resp any) error {
	var body []byte
	contentType := ""
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return err
		}
		contentType = mediaJSON
	}
	r, err := hc.send(method, path, contentType, "", body)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(resp)
}

// send is the one wire round trip under every method of the client: it
// posts body under contentType (either may be empty), asks for accept when
// non-empty, and turns every non-2xx answer into the typed error its
// envelope names. The caller closes the returned response's body; that
// Close, like an error return, waits until the transport has closed every
// reader of body it was handed: body may be the caller's x, which net/http
// can still be writing after Do returns (a 413 sent before it was read).
func (hc *HTTPClient) send(method, path, contentType, accept string, body []byte) (*http.Response, error) {
	httpReq, err := http.NewRequest(method, hc.base+path, nil)
	if err != nil {
		return nil, err
	}
	var open sync.WaitGroup // GetBody runs only inside Do: every Add precedes Wait
	if len(body) > 0 {
		httpReq.GetBody = func() (io.ReadCloser, error) {
			open.Add(1)
			return &onClose{Reader: bytes.NewReader(body), then: open.Done}, nil
		}
		httpReq.Body, _ = httpReq.GetBody()
		httpReq.ContentLength = int64(len(body))
	}
	if contentType != "" {
		httpReq.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		httpReq.Header.Set("Accept", accept)
	}
	r, err := hc.c.Do(httpReq)
	if err != nil {
		open.Wait()
		return nil, fmt.Errorf("server %s: %w", hc.base, err)
	}
	rb := r.Body
	r.Body = &onClose{Reader: rb, then: func() { rb.Close(); open.Wait() }}
	if r.StatusCode >= 300 {
		defer r.Body.Close()
		return nil, hc.apiError(r)
	}
	return r, nil
}

// onClose is a body whose first Close runs then.
type onClose struct {
	io.Reader
	once sync.Once
	then func()
}

func (b *onClose) Close() error { b.once.Do(b.then); return nil }

// RegisterSuite registers a generated suite twin on the remote server.
func (hc *HTTPClient) RegisterSuite(id, suite string, scale float64, seed int64) (MatrixInfo, error) {
	var info MatrixInfo
	err := hc.do(http.MethodPost, "/v1/matrices",
		registerRequest{ID: id, Suite: suite, Scale: scale, Seed: seed}, &info)
	return info, err
}

// registerBand ships m as one band frame and registers it remotely,
// pinned to general storage (see Transport.Register).
func (hc *HTTPClient) registerBand(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	q := url.Values{"id": {id}, "name": {name}}
	r, err := hc.send(http.MethodPost, "/v1/matrices?"+q.Encode(), mediaBand, "", encodeBand(m))
	if err != nil {
		return MatrixInfo{}, err
	}
	defer r.Body.Close()
	var info MatrixInfo
	err = json.NewDecoder(r.Body).Decode(&info)
	return info, err
}

// MulOpts computes y = A·x on the remote server under the request
// options (tenant admission, SLO class, deadline). x and y cross the wire
// as raw little-endian float64 frames — 8 bytes an element, bit-exact,
// including values JSON cannot carry — and the options as query
// parameters. x is sent from its own memory and y read into its own, and
// MulOpts returns only once the transport is done with x.
func (hc *HTTPClient) MulOpts(id string, x []float64, opts MulOptions) ([]float64, error) {
	return hc.mul(id, x, opts, nil)
}

// mul is MulOpts reading y into the band rows y (or, if nil, a new vector).
func (hc *HTTPClient) mul(id string, x []float64, opts MulOptions, y []float64) ([]float64, error) {
	q := url.Values{}
	if opts.Tenant != "" {
		q.Set("tenant", opts.Tenant)
	}
	if opts.Class != "" {
		q.Set("class", opts.Class)
	}
	if ms := int64(opts.Deadline / time.Millisecond); ms != 0 {
		q.Set("deadline_ms", strconv.FormatInt(ms, 10))
	}
	if opts.Affinity != "" {
		q.Set("affinity", opts.Affinity)
	}
	path := "/v1/matrices/" + url.PathEscape(id) + "/mul"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	r, err := hc.send(http.MethodPost, path, mediaF64LE, mediaF64LE, vecBytes(x))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if codecOf(r.Header.Get("Content-Type")) != codecF64LE || r.ContentLength < 0 || r.ContentLength%8 != 0 {
		return nil, fmt.Errorf("server %s: mul answered %q with Content-Length %d, want a %s frame",
			hc.base, r.Header.Get("Content-Type"), r.ContentLength, mediaF64LE)
	}
	n := int(r.ContentLength / 8)
	if y == nil {
		y = make([]float64, n)
	} else if n != len(y) {
		return nil, fmt.Errorf("server: member %s returned %d rows for the %d-row band %q", hc.base, n, len(y), id)
	}
	b := vecBytes(y)
	if _, err := io.ReadFull(r.Body, b); err != nil {
		return nil, fmt.Errorf("server %s: reading the %d-byte result frame: %w", hc.base, len(b), err)
	}
	setVec(y, b)
	return y, nil
}

// Patch applies one atomic batch of COO deltas on the remote server. A
// sharded target comes back as ErrShardedImmutable; hitting a server
// predating the endpoint comes back as ErrMethodNotAllowed.
func (hc *HTTPClient) Patch(id string, deltas []Delta) (PatchResult, error) {
	var res PatchResult
	err := hc.do(http.MethodPatch, "/v1/matrices/"+url.PathEscape(id), patchRequest{Deltas: deltas}, &res)
	return res, err
}

// DeleteMatrix tears the matrix down on the remote server.
func (hc *HTTPClient) DeleteMatrix(id string) (DeleteResult, error) {
	var res DeleteResult
	err := hc.do(http.MethodDelete, "/v1/matrices/"+url.PathEscape(id), nil, &res)
	return res, err
}

// SolveOpts creates a solver session on the remote server; non-empty
// options override the request's own tenant/class fields.
func (hc *HTTPClient) SolveOpts(id string, req SolveRequest, opts SolveOptions) (SolveStatus, error) {
	if opts.Tenant != "" {
		req.Tenant = opts.Tenant
	}
	if opts.Class != "" {
		req.Class = opts.Class
	}
	var st SolveStatus
	err := hc.do(http.MethodPost, "/v1/matrices/"+url.PathEscape(id)+"/solve", req, &st)
	return st, err
}

// SolveStatus polls a session, optionally blocking server-side up to
// wait for it to leave running.
func (hc *HTTPClient) SolveStatus(sid string, wait time.Duration) (SolveStatus, error) {
	path := "/v1/solve/" + url.PathEscape(sid)
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var st SolveStatus
	err := hc.do(http.MethodGet, path, nil, &st)
	return st, err
}

// CancelSolve cancels and removes a session.
func (hc *HTTPClient) CancelSolve(sid string) (SolveStatus, error) {
	var st SolveStatus
	err := hc.do(http.MethodDelete, "/v1/solve/"+url.PathEscape(sid), nil, &st)
	return st, err
}

// StatsReport fetches the full /v1/stats document.
func (hc *HTTPClient) StatsReport() (StatsReport, error) {
	var rep StatsReport
	err := hc.do(http.MethodGet, "/v1/stats", nil, &rep)
	return rep, err
}
