package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/kernel"
)

// registerTridiag registers the 4x4 tridiagonal fixture as "a".
func registerTridiag(t testing.TB, s *Server) {
	t.Helper()
	m := spmv.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		_ = m.Set(i, i, 2)
		if i > 0 {
			_ = m.Set(i, i-1, -1)
			_ = m.Set(i-1, i, -1)
		}
	}
	if _, err := s.Register("a", "tiny", m); err != nil {
		t.Fatal(err)
	}
}

// decodeF64LE decodes a vector frame; len(b) must be a multiple of 8.
func decodeF64LE(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// frameRequest builds a mul request carrying body as a vector frame.
func frameRequest(target string, body []byte) *http.Request {
	req := httptest.NewRequest("POST", target, bytes.NewReader(body))
	req.Header.Set("Content-Type", mediaF64LE)
	return req
}

// wantEnvelope asserts rec is an enveloped error with the given status
// and code — in particular not a frame, partial or otherwise.
func wantEnvelope(t *testing.T, name string, rec *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if rec.Code != status {
		t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, status, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != mediaJSON {
		t.Errorf("%s: error Content-Type %q, want %s", name, ct, mediaJSON)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Message == "" {
		t.Errorf("%s: body %q is not an error envelope (%v)", name, rec.Body.String(), err)
	}
	if e.Error.Code != code {
		t.Errorf("%s: code %q, want %q", name, e.Error.Code, code)
	}
}

// TestMulFrameRoundTrip: a frame request is answered with a frame holding
// the in-process bits, options ride the query string, and Accept can ask
// either codec of either request.
func TestMulFrameRoundTrip(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	registerTridiag(t, s)
	h := s.Handler()
	x := []float64{1, -2.5, 3e-300, 4e300}
	want, err := s.MulOpts("a", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frame := appendF64LE(nil, x)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, frameRequest("/v1/matrices/a/mul?tenant=acme&class=latency&deadline_ms=5000&affinity=k", frame))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != mediaF64LE {
		t.Fatalf("frame mul: status %d type %q: %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), appendF64LE(nil, want)) {
		t.Fatalf("frame mul: y bytes %x, want %x", rec.Body.Bytes(), appendF64LE(nil, want))
	}

	// Frame in, JSON out.
	req := frameRequest("/v1/matrices/a/mul", frame)
	req.Header.Set("Accept", mediaJSON)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var jr mulResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil || rec.Code != 200 {
		t.Fatalf("frame->json mul: status %d body %q: %v", rec.Code, rec.Body.String(), err)
	}
	for i := range want {
		if math.Float64bits(jr.Y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame->json y[%d] = %x, want %x", i, jr.Y[i], want[i])
		}
	}

	// JSON in, frame out.
	body, _ := json.Marshal(mulRequest{X: x})
	req = httptest.NewRequest("POST", "/v1/matrices/a/mul", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	req.Header.Set("Accept", mediaF64LE)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), appendF64LE(nil, want)) {
		t.Fatalf("json->frame mul: status %d body %x", rec.Code, rec.Body.Bytes())
	}

	// curl -d sends form-urlencoded and no header at all is also the JSON tier.
	for _, ct := range []string{"", "application/x-www-form-urlencoded"} {
		req = httptest.NewRequest("POST", "/v1/matrices/a/mul", bytes.NewReader(body))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 || rec.Header().Get("Content-Type") != mediaJSON {
			t.Errorf("Content-Type %q: status %d type %q, want the JSON tier", ct, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// TestMulFrameMalformed is the table of broken frame requests: each gets
// an enveloped error, never a vector.
func TestMulFrameMalformed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBodyBytes = 1 << 10
	s := New(cfg)
	defer s.Close()
	registerTridiag(t, s)
	h := s.Handler()
	good := appendF64LE(nil, []float64{1, 2, 3, 4})
	nan := appendF64LE(nil, []float64{1, math.NaN(), 3, 4})
	inf := appendF64LE(nil, []float64{1, 2, math.Inf(-1), 4})

	cases := []struct {
		name    string
		target  string
		ctype   string
		body    []byte
		declare int64 // Content-Length to declare; 0 means len(body)
		status  int
		code    string
	}{
		{"short body", "/v1/matrices/a/mul", mediaF64LE, good[:24], 32, 400, "bad_request"},
		{"long body", "/v1/matrices/a/mul", mediaF64LE, append(good[:32:32], 0, 0, 0, 0, 0, 0, 0, 0), 32, 400, "bad_request"},
		{"length not a multiple of 8", "/v1/matrices/a/mul", mediaF64LE, good[:29], 0, 400, "bad_request"},
		{"Content-Length != 8*cols (fewer)", "/v1/matrices/a/mul", mediaF64LE, good[:24], 0, 400, "bad_request"},
		{"Content-Length != 8*cols (more)", "/v1/matrices/a/mul", mediaF64LE, append(good[:32:32], good[:8]...), 0, 400, "bad_request"},
		{"empty frame", "/v1/matrices/a/mul", mediaF64LE, nil, 0, 400, "bad_request"},
		{"no Content-Length", "/v1/matrices/a/mul", mediaF64LE, good, -1, 400, "bad_request"},
		{"unknown media type", "/v1/matrices/a/mul", "application/octet-stream", good, 0, 415, "unsupported_media_type"},
		{"band frame on mul", "/v1/matrices/a/mul", mediaBand, good, 0, 415, "unsupported_media_type"},
		{"over MaxBodyBytes", "/v1/matrices/a/mul", mediaF64LE, make([]byte, 2<<10), 0, 413, "payload_too_large"},
		{"unknown query parameter", "/v1/matrices/a/mul?tennant=acme", mediaF64LE, good, 0, 400, "bad_request"},
		{"malformed query", "/v1/matrices/a/mul?tenant=%zz", mediaF64LE, good, 0, 400, "bad_request"},
		{"negative deadline_ms", "/v1/matrices/a/mul?deadline_ms=-1", mediaF64LE, good, 0, 400, "bad_request"},
		{"non-numeric deadline_ms", "/v1/matrices/a/mul?deadline_ms=soon", mediaF64LE, good, 0, 400, "bad_request"},
		{"unknown class", "/v1/matrices/a/mul?class=interactive", mediaF64LE, good, 0, 400, "bad_request"},
		{"unknown matrix", "/v1/matrices/nope/mul", mediaF64LE, good, 0, 404, "unknown_matrix"},
		{"NaN in x", "/v1/matrices/a/mul", mediaF64LE, nan, 0, 400, "invalid_argument"},
		{"-Inf in x", "/v1/matrices/a/mul", mediaF64LE, inf, 0, 400, "invalid_argument"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", tc.target, bytes.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.ctype)
		if tc.declare != 0 {
			req.ContentLength = tc.declare
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		wantEnvelope(t, tc.name, rec, tc.status, tc.code)
	}
}

// TestNonFiniteClosedBothEnds: a non-finite x is refused whatever carried
// it (in-process, frames, a sharded id), and a y
// that overflowed to ±Inf — which finite inputs can produce — travels in a
// frame but becomes an enveloped error on the JSON tier instead of the
// empty 200 json.Encoder used to leave behind.
func TestNonFiniteClosedBothEnds(t *testing.T) {
	member := New(DefaultConfig())
	defer member.Close()
	cluster, err := NewCluster([]Transport{NewLocalTransport("m0", member)}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	defer s.Close()
	s.AttachCluster(cluster)
	big := spmv.NewMatrix(2, 2)
	_ = big.Set(0, 0, 1e308)
	_ = big.Set(0, 1, 1e308)
	_ = big.Set(1, 1, 1)
	if _, err := s.Register("big", "big", big); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.RegisterSharded("sh", "sh", big, 2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hc := NewHTTPClient(ts.URL, nil)

	for _, bad := range [][]float64{{math.NaN(), 1}, {1, math.Inf(1)}} {
		for _, id := range []string{"big", "sh"} {
			if _, err := s.MulOpts(id, bad, MulOptions{}); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("in-process %s x=%v: err %v, want ErrInvalidArgument", id, bad, err)
			}
			if _, err := hc.MulOpts(id, bad, MulOptions{}); !errors.Is(err, ErrInvalidArgument) {
				t.Errorf("frames %s x=%v: err %v, want ErrInvalidArgument", id, bad, err)
			}
		}
	}

	x := []float64{10, 10} // 1e309 + 1e309 overflows row 0
	y, err := hc.MulOpts("big", x, MulOptions{})
	if err != nil || !math.IsInf(y[0], 1) || y[1] != 10 {
		t.Fatalf("frames carry an overflowed y: got %v, %v", y, err)
	}
	resp := postJSON(t, ts.URL+"/v1/matrices/big/mul", mulRequest{X: x})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e errorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil ||
		e.Error.Code != "internal" || !strings.Contains(e.Error.Message, mediaF64LE) {
		t.Fatalf("JSON tier with an overflowed y: status %d body %q, want an enveloped 500 naming the frame codec",
			resp.StatusCode, body)
	}
}

// TestNonFiniteLaneInFusedBatch: the finite check rides the interleave
// copy (kernel.InterleaveInto), so a fused batch can discover one bad x
// among good ones. The bad request alone fails; its batch-mates get the
// bits a lone sweep gives. The copy moves lanes in groups of eight, then
// four, then one per pass, so the widths put the bad lane in single-lane
// passes (width 3, lane 6 of width 7, lane 8 of width 9), in a group of
// four (width 4, lane 1 of width 7) and in a group of eight (width 8, lane
// 1 of width 9).
func TestNonFiniteLaneInFusedBatch(t *testing.T) {
	lone := New(DefaultConfig())
	defer lone.Close()
	registerTridiag(t, lone)
	bad := []float64{math.Inf(-1), math.NaN(), math.Float64frombits(0x7FF0_0000_0000_0001), math.Inf(1)}
	for _, width := range []int{3, 4, 7, 8, 9} {
		for _, badLane := range []int{1, width - 1} {
			cfg := DefaultConfig()
			cfg.MaxBatch = width
			cfg.Adaptive = false
			cfg.BatchWindow = 5 * time.Second // closes early once the batch is full
			s := New(cfg)
			registerTridiag(t, s)
			// joined counts the requests in the one open batch: each request
			// is sent once the previous one joined, so request v is lane v.
			joined := func() int {
				s.mu.Lock()
				defer s.mu.Unlock()
				for _, b := range s.batchers {
					b.mu.Lock()
					defer b.mu.Unlock()
					if b.open != nil {
						return len(b.open.reqs)
					}
				}
				return 0
			}
			xs := make([][]float64, width)
			for v := range xs {
				xs[v] = []float64{float64(v) - 1.5, math.Copysign(0, -1), 1e-310 * float64(v+1), 0.25 * float64(v)}
			}
			xs[badLane][(badLane+width)%4] = bad[(badLane+width)%len(bad)]
			ys := make([][]float64, width)
			errs := make([]error, width)
			var wg sync.WaitGroup
			for v := range xs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ys[v], errs[v] = s.MulOpts("a", xs[v], MulOptions{})
				}()
				for deadline := time.Now().Add(time.Second); v < width-1 && joined() <= v; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("width %d: request %d never joined the batch", width, v)
					}
				}
			}
			wg.Wait()
			st := s.Stats()
			s.Close()
			if st.FusedSweeps != 1 || st.Sweeps != 1 {
				t.Fatalf("width %d: %d sweeps, %d fused: the requests did not share one sweep", width, st.Sweeps, st.FusedSweeps)
			}
			for v := range xs {
				if !kernel.Finite(xs[v]) {
					if !errors.Is(errs[v], ErrInvalidArgument) || ys[v] != nil {
						t.Errorf("width %d lane %d: got %v, %v; want ErrInvalidArgument", width, v, ys[v], errs[v])
					}
					continue
				}
				want, err := lone.MulOpts("a", xs[v], MulOptions{})
				if err != nil || errs[v] != nil {
					t.Fatalf("width %d lane %d: fused err %v, lone err %v", width, v, errs[v], err)
				}
				for i := range want {
					if math.Float64bits(ys[v][i]) != math.Float64bits(want[i]) {
						t.Errorf("width %d lane %d: y[%d] = %x beside a non-finite lane %d, %x alone",
							width, v, i, ys[v][i], badLane, want[i])
					}
				}
			}
		}
	}
}

// TestUnsupportedMediaTypeRestored: the 415 envelope code survives the
// wire as its sentinel.
func TestUnsupportedMediaTypeRestored(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	registerTridiag(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hc := NewHTTPClient(ts.URL, nil)
	_, err := hc.send(http.MethodPost, "/v1/matrices/a/mul", "text/csv", "", []byte("1,2,3,4"))
	if !errors.Is(err, ErrUnsupportedMediaType) {
		t.Fatalf("err %v, want ErrUnsupportedMediaType", err)
	}
}

// TestWidthOneSharesX: at width 1 the sweep reads the caller's x in place
// and writes the result vector directly. Many concurrent requests sharing
// ONE x slice must stay race-free (run under -race) and bit-identical,
// with and without a live overlay.
func TestWidthOneSharesX(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 1 // every sweep is width 1, and they run concurrently
	cfg.RecompactThreshold = -1
	s := New(cfg)
	defer s.Close()
	m, err := spmv.GenerateSuite("LP", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"plain", "patched"} {
		if _, err := s.Register(id, id, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Patch("patched", []Delta{{Op: "set", Row: 1, Col: 2, Val: 9}, {Op: "add", Row: 0, Col: 0, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()
	x := randVec(cols, 8)
	xCopy := append([]float64(nil), x...)
	for _, id := range []string{"plain", "patched"} {
		want, err := s.MulOpts(id, x, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 10; k++ {
					y, err := s.MulOpts(id, x, MulOptions{})
					if err != nil {
						t.Error(err)
						return
					}
					for i := range y {
						if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
							t.Errorf("%s: y[%d] differs across concurrent width-1 sweeps", id, i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xCopy[i]) {
			t.Fatalf("the server wrote to the caller's x at %d", i)
		}
	}
}

// matrixEntries lists m's stored entries in order.
func matrixEntries(m *spmv.Matrix) (out [][3]float64) {
	m.Entries(func(i, j int, v float64) { out = append(out, [3]float64{float64(i), float64(j), v}) })
	return out
}

func sameEntries(a, b [][3]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k][0] != b[k][0] || a[k][1] != b[k][1] || math.Float64bits(a[k][2]) != math.Float64bits(b[k][2]) {
			return false
		}
	}
	return true
}

// TestBandFrameRoundTrip: a band frame delivers what the MatrixMarket
// document it replaces delivered — the same entries, bits and order — for
// a row-major band (what buildBands cuts from every suite twin), values
// %.17g has to work for (denormals, -0, huge) included. For a matrix whose
// entries arrive shuffled with duplicates the frame groups by row keeping
// each row's insertion order, which compiles to the same bits.
func TestBandFrameRoundTrip(t *testing.T) {
	lp, err := spmv.GenerateSuite("LP", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	odd := spmv.NewMatrix(3, 5)
	for _, e := range [][3]float64{
		{0, 4, 5e-324}, {0, 4, math.Copysign(0, -1)}, {1, 0, -1.7976931348623157e308},
		{1, 3, 0.1}, {1, 3, 0.2}, {2, 2, 1.0000000000000002},
	} {
		_ = odd.Set(int(e[0]), int(e[1]), e[2])
	}
	for name, m := range map[string]*spmv.Matrix{"LP": lp, "odd": odd} {
		var doc strings.Builder
		if err := m.WriteMatrixMarket(&doc); err != nil {
			t.Fatal(err)
		}
		viaMM, err := spmv.ReadMatrixMarket(strings.NewReader(doc.String()))
		if err != nil {
			t.Fatal(err)
		}
		frame := encodeBand(m)
		viaFrame, err := decodeBand(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r1, c1 := viaMM.Dims()
		r2, c2 := viaFrame.Dims()
		if r1 != r2 || c1 != c2 || !sameEntries(matrixEntries(viaMM), matrixEntries(viaFrame)) {
			t.Errorf("%s: band frame round trip differs from the MatrixMarket round trip", name)
		}
		t.Logf("%s: %d nnz, MatrixMarket %d bytes, band frame %d bytes", name, m.NNZ(), doc.Len(), len(frame))
	}

	// Shuffled rows with duplicates: grouped by row, insertion order kept
	// within a row, compiled bits unchanged.
	sh := spmv.NewMatrix(3, 3)
	for _, e := range [][3]float64{{2, 1, 0.1}, {0, 0, 1}, {2, 1, 0.2}, {1, 2, 3}, {2, 0, 4}, {0, 0, 1e-17}, {2, 1, 0.3}} {
		_ = sh.Set(int(e[0]), int(e[1]), e[2])
	}
	got, err := decodeBand(encodeBand(sh))
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := [][3]float64{{0, 0, 1}, {0, 0, 1e-17}, {1, 2, 3}, {2, 1, 0.1}, {2, 1, 0.2}, {2, 0, 4}, {2, 1, 0.3}}
	if !sameEntries(matrixEntries(got), wantOrder) {
		t.Errorf("shuffled band decoded as %v, want %v", matrixEntries(got), wantOrder)
	}
	opA, err := spmv.Compile(sh, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	opB, err := spmv.Compile(got, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 1.1}
	ya, _ := opA.Mul(x)
	yb, _ := opB.Mul(x)
	for i := range ya {
		if math.Float64bits(ya[i]) != math.Float64bits(yb[i]) {
			t.Errorf("shuffled band: y[%d] %x after the frame, %x before", i, yb[i], ya[i])
		}
	}
}

// corruptBands are band frames a member must refuse, derived from the
// valid frame of a 2x3 matrix with 3 entries. Shared with FuzzBandFrame.
func corruptBands() map[string][]byte {
	m := spmv.NewMatrix(2, 3)
	_ = m.Set(0, 0, 2)
	_ = m.Set(0, 2, 1)
	_ = m.Set(1, 1, 3)
	good := encodeBand(m)
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	le := binary.LittleEndian
	return map[string][]byte{
		"empty":                    {},
		"header only":              good[:bandHeaderBytes],
		"truncated":                good[:len(good)-5],
		"trailing bytes":           append(append([]byte(nil), good...), 0),
		"zero rows":                mut(func(b []byte) { le.PutUint64(b[0:], 0) }),
		"rows overflow":            mut(func(b []byte) { le.PutUint64(b[0:], math.MaxUint64) }),
		"cols overflow":            mut(func(b []byte) { le.PutUint64(b[8:], 1<<40) }),
		"nnz overflow":             mut(func(b []byte) { le.PutUint64(b[16:], math.MaxUint64/8) }),
		"nnz understated":          mut(func(b []byte) { le.PutUint64(b[16:], 2) }),
		"row pointers start late":  mut(func(b []byte) { le.PutUint64(b[bandHeaderBytes:], 1) }),
		"row pointers decrease":    mut(func(b []byte) { le.PutUint64(b[bandHeaderBytes+8:], 3); le.PutUint64(b[bandHeaderBytes+16:], 2) }),
		"row pointers end early":   mut(func(b []byte) { le.PutUint64(b[bandHeaderBytes+16:], 2) }),
		"row pointer past nnz":     mut(func(b []byte) { le.PutUint64(b[bandHeaderBytes+8:], 9) }),
		"column out of range":      mut(func(b []byte) { le.PutUint32(b[bandHeaderBytes+24:], 3) }),
		"column far out of range":  mut(func(b []byte) { le.PutUint32(b[bandHeaderBytes+24:], math.MaxUint32) }),
		"cols shrunk under column": mut(func(b []byte) { le.PutUint64(b[8:], 2) }),
	}
}

// TestBandFrameCorruptRejected: a corrupted or truncated band frame is
// refused at register time with an enveloped 400 and registers nothing.
func TestBandFrameCorruptRejected(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	h := s.Handler()
	for name, frame := range corruptBands() {
		if _, err := decodeBand(frame); err == nil {
			t.Errorf("%s: decodeBand accepted it", name)
		}
		req := httptest.NewRequest("POST", "/v1/matrices?id=b", bytes.NewReader(frame))
		req.Header.Set("Content-Type", mediaBand)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		wantEnvelope(t, name, rec, 400, "bad_request")
	}
	if n := len(s.reg.list()); n != 0 {
		t.Fatalf("%d matrices registered by corrupt frames", n)
	}
	req := httptest.NewRequest("POST", "/v1/matrices?id=b&shards=2", bytes.NewReader(nil))
	req.Header.Set("Content-Type", mediaBand)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantEnvelope(t, "unknown query parameter", rec, 400, "bad_request")
}

// TestHTTPTransportIsHTTPClient: the transport's four verbs ride the
// client's wire path — a band registers as a frame pinned general, Mul is
// bit-exact, and member errors come back as sentinels by envelope code.
func TestHTTPTransportIsHTTPClient(t *testing.T) {
	ms := New(DefaultConfig())
	defer ms.Close()
	mts := httptest.NewServer(ms.Handler())
	defer mts.Close()
	tr := NewHTTPTransport(mts.URL, nil)

	// A symmetric band: a JSON registration would auto-pick SymCSR, the
	// band path must not.
	m := spmv.NewMatrix(3, 3)
	for _, e := range [][3]float64{{0, 0, 2}, {0, 1, -1}, {1, 0, -1}, {1, 1, 2}, {2, 2, 0.1}} {
		_ = m.Set(int(e[0]), int(e[1]), e[2])
	}
	info, err := tr.Register("m.s0", "m/shard0", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "m.s0" || info.Name != "m/shard0" || info.Rows != 3 || info.Cols != 3 || info.NNZ != 5 || info.Symmetric {
		t.Fatalf("band registered as %+v", info)
	}
	if _, err := tr.Register("m.s0", "again", m); !errors.Is(err, ErrAlreadyRegistered) {
		t.Errorf("duplicate band: err %v, want ErrAlreadyRegistered", err)
	}
	x := []float64{0.1, 0.2, 0.3}
	want, _ := ms.MulOpts("m.s0", x, MulOptions{})
	got, err := tr.Mul("m.s0", x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("transport y[%d] = %x, in-process %x", i, got[i], want[i])
		}
	}
	if st, err := tr.Stats(); err != nil || st.Registered != 1 || st.Requests != 2 {
		t.Errorf("stats %+v, %v; want 1 registered, 2 requests", st, err)
	}
	if err := tr.Unregister("m.s0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Mul("m.s0", x); !errors.Is(err, ErrUnknownMatrix) {
		t.Errorf("mul after unregister: err %v, want ErrUnknownMatrix", err)
	}
	if err := tr.Unregister("m.s0"); !errors.Is(err, ErrUnknownMatrix) {
		t.Errorf("double unregister: err %v, want ErrUnknownMatrix", err)
	}
}

// withCodec runs f with nativeLE forced to native, so a little-endian host
// also runs the explicit codec a big-endian host serves frames with.
func withCodec(native bool, f func()) {
	defer func(was bool) { nativeLE = was }(nativeLE)
	nativeLE = native
	f()
}

// TestFrameEdgeValuesBitwise: IEEE-754's edge values cross the wire as bits
// — NaN payloads (quiet and signalling) and ±Inf in y, −0, subnormals and
// ±MaxFloat64 in x and y — through HTTPClient → server → HTTPClient and
// HTTPTransport.Sweep, bitwise equal to in-process MulOpts, both on the
// in-place path and through the explicit little-endian codec; and a NaN or
// ±Inf in x is refused over the wire as in-process.
func TestFrameEdgeValuesBitwise(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub := math.Float64frombits(1) // the smallest subnormal
	diag := []float64{
		math.Float64frombits(0x7ff8_0000_0000_beef), // quiet NaN with a payload
		math.Float64frombits(0xfff0_0000_0000_0001), // signalling NaN, sign set
		math.Float64frombits(0x7ff4_dead_beef_0000), // signalling NaN
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), // −0
		sub, -sub, math.SmallestNonzeroFloat64 * 3, 0x1p-1022, // subnormals, smallest normal
		math.MaxFloat64, -math.MaxFloat64, 1,
	}
	xEdge := []float64{math.Copysign(0, -1), sub, math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 1}
	// Row i < len(diag) is diag[i]·x[i] with x[i] = 1; the rows after it
	// take x's edge values through ×2 (overflow to ±Inf), ×0.5 (subnormal
	// rounding) and a sum that cancels to zero.
	n, k := len(diag), len(xEdge)
	m := spmv.NewMatrix(n+k+1, n+k)
	for i, v := range diag {
		_ = m.Set(i, i, v)
	}
	for j := range xEdge {
		_ = m.Set(n+j, n+j, 2)
		_ = m.Set(n+j, n+(j+1)%k, 0.5)
	}
	_ = m.Set(n+k, n+2, 1)
	_ = m.Set(n+k, n+3, 1)
	if _, err := s.Register("edge", "edge", m); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n+k)
	for i := range diag {
		x[i] = 1
	}
	copy(x[n:], xEdge)
	want, err := s.MulOpts("edge", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(want[0]) || !math.IsNaN(want[1]) || !math.IsInf(want[3], 1) || want[6] != sub ||
		!math.IsInf(want[n+2], 1) || !math.IsInf(want[n+3], -1) {
		t.Fatalf("the fixture lost its edge values: y = %v", want)
	}

	hc := NewHTTPClient(ts.URL, nil)
	tr := NewHTTPTransport(ts.URL, nil)
	for _, native := range []bool{true, false} {
		withCodec(native, func() {
			got, err := hc.MulOpts("edge", x, MulOptions{})
			if err != nil {
				t.Fatalf("nativeLE=%v: %v", native, err)
			}
			mustBitwise(t, "HTTPClient.MulOpts", got, want)
			swept := make([]float64, len(want))
			if err := tr.Sweep("edge", swept, x); err != nil {
				t.Fatalf("nativeLE=%v: Sweep: %v", native, err)
			}
			mustBitwise(t, "HTTPTransport.Sweep", swept, want)
			for _, bad := range []float64{diag[0], diag[1], diag[2], math.Inf(1), math.Inf(-1)} {
				xb := append([]float64(nil), x...)
				xb[n+1] = bad
				_, inErr := s.MulOpts("edge", xb, MulOptions{})
				_, wireErr := hc.MulOpts("edge", xb, MulOptions{})
				if !errors.Is(inErr, ErrInvalidArgument) || !errors.Is(wireErr, ErrInvalidArgument) {
					t.Errorf("nativeLE=%v: x[%d] = %x: in-process %v, wire %v; want both ErrInvalidArgument",
						native, n+1, math.Float64bits(bad), inErr, wireErr)
				}
			}
		})
	}
}

// countingReader counts the Read calls made on it.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestMulFrameBodyLengths: every body length from 0 to 17 bytes gets its
// fixed answer — the 16-byte frame a vector, a length that is not a whole
// number of float64s the 400 envelope naming it, word for word, the other
// lengths the dimension 400 — and a declared length is held to: one over
// MaxBodyBytes is 413 without a byte of the body read, a body shorter or
// longer than declared is 400.
func TestMulFrameBodyLengths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBodyBytes = 64
	s := New(cfg)
	defer s.Close()
	m := spmv.NewMatrix(2, 2)
	_ = m.Set(0, 0, 2)
	_ = m.Set(0, 1, -1)
	_ = m.Set(1, 1, 0.5)
	if _, err := s.Register("b", "b", m); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := appendF64LE(nil, []float64{3, -4, 5})
	want, err := s.MulOpts("b", decodeF64LE(body[:16]), MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 17; n++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, frameRequest("/v1/matrices/b/mul", body[:n]))
		name := fmt.Sprintf("%d-byte body", n)
		switch {
		case n == 16:
			if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), appendF64LE(nil, want)) {
				t.Errorf("%s: status %d body %x, want the frame %x", name, rec.Code, rec.Body.Bytes(), appendF64LE(nil, want))
			}
		case n%8 != 0:
			wantEnvelope(t, name, rec, 400, "bad_request")
			var e errorResponse
			_ = json.Unmarshal(rec.Body.Bytes(), &e)
			if msg := fmt.Sprintf("bad request body: %d bytes is not a whole number of float64s", n); e.Error.Message != msg {
				t.Errorf("%s: message %q, want %q", name, e.Error.Message, msg)
			}
		default:
			wantEnvelope(t, name, rec, 400, "bad_request")
		}
	}

	for _, tc := range []struct {
		name     string
		body     int
		declared int64
		status   int
		code     string
	}{
		{"declared over MaxBodyBytes", 72, 72, 413, "payload_too_large"},
		{"declared over MaxBodyBytes, body short", 8, 1 << 20, 413, "payload_too_large"},
		{"body shorter than declared", 8, 16, 400, "bad_request"},
		{"body longer than declared", 24, 16, 400, "bad_request"},
		{"body shorter, declared not whole", 8, 13, 400, "bad_request"},
	} {
		cr := &countingReader{r: bytes.NewReader(make([]byte, tc.body))}
		req := httptest.NewRequest("POST", "/v1/matrices/b/mul", cr)
		req.Header.Set("Content-Type", mediaF64LE)
		req.ContentLength = tc.declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		wantEnvelope(t, tc.name, rec, tc.status, tc.code)
		if tc.status == 413 && cr.reads != 0 {
			t.Errorf("%s: the body was read %d times before the 413", tc.name, cr.reads)
		}
	}
}

// TestHTTPMulConcurrentDistinctX: concurrent frame muls, each with its own
// x, fused into shared sweeps and reading x into recycled vectors, each
// answer the in-process bits of their own x — a pooled vector reused
// before its request finished would hand one request another's x. Run
// under -race.
func TestHTTPMulConcurrentDistinctX(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = false
	cfg.BatchWindow = 2 * time.Millisecond
	s := New(cfg)
	defer s.Close()
	const rows, cols, clients, rounds = 70, 300, 6, 12
	if _, err := s.Register("m", "m", testMatrix(t, rows, cols, 1500, 3)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hc := NewHTTPClient(ts.URL, nil)
	xs := make([][]float64, clients*rounds)
	wants := make([][]float64, len(xs))
	for i := range xs {
		xs[i] = testVector(cols, int64(100+i))
		var err error
		if wants[i], err = s.MulOpts("m", xs[i], MulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := r*clients + c
				y, err := hc.MulOpts("m", xs[i], MulOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				for j := range y {
					if math.Float64bits(y[j]) != math.Float64bits(wants[i][j]) {
						t.Errorf("request %d: y[%d] = %x, want %x", i, j, y[j], wants[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.FusedSweeps == 0 {
		t.Logf("no sweep fused (%d sweeps for %d requests); the pool still recycled across requests", st.Sweeps, st.Requests)
	}
}

// TestHTTPMulEarly413LeavesX: a server that answers 413 before reading the
// body leaves net/http still writing x after Do returns; MulOpts must not
// return until the transport has closed the body, so the caller may
// overwrite x at once. Under -race, a transport still reading x is a
// reported race.
func TestHTTPMulEarly413LeavesX(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBodyBytes = 1 << 10
	s := New(cfg)
	defer s.Close()
	registerTridiag(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hc := NewHTTPClient(ts.URL, nil)
	x := make([]float64, 1<<18) // 2 MB: far more than the socket buffers hold
	for round := 0; round < 4; round++ {
		_, err := hc.MulOpts("a", x, MulOptions{})
		if err == nil || !strings.Contains(err.Error(), "exceeds the 1024-byte limit") {
			t.Fatalf("round %d: err %v, want the 413", round, err)
		}
		for i := range x {
			x[i] = float64(round*len(x) + i)
		}
	}
}

// TestHTTPMulBadBaseReturns: MulOpts against an unreachable or malformed
// base URL returns an error promptly instead of waiting for a request body
// the transport never took, or already closed.
func TestHTTPMulBadBaseReturns(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	for _, base := range []string{"http://127.0.0.1:1", "http://[::1", "ftp://example.invalid", "http://", "127.0.0.1"} {
		done := make(chan error, 1)
		go func() {
			_, err := NewHTTPClient(base, nil).MulOpts("a", x, MulOptions{})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%q: MulOpts succeeded", base)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%q: MulOpts still waiting after 10s", base)
		}
	}
}
