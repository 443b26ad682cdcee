package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spmv "repro"
)

// FuzzRegisterJSON exercises the POST /v1/matrices payload path — every
// source (suite, entries, matrix_market), the shards/symmetric modifiers,
// and their invalid combinations — against arbitrary bodies: the handler
// must never panic, must always answer with a well-formed JSON object,
// and must answer the structured cases with their documented statuses.
// The seed corpus lives alongside the mmio fuzz corpus in CI's
// fuzz-smoke job.
func FuzzRegisterJSON(f *testing.F) {
	// Each source on its own.
	f.Add(`{"suite":"QCD","scale":0.01,"seed":3}`)
	f.Add(`{"id":"a","name":"n","rows":3,"cols":3,"entries":[[0,0,1],[1,2,-2.5],[2,2,4]]}`)
	f.Add(`{"matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n"}`)
	// Symmetric pin, both ways, and on an asymmetric matrix.
	f.Add(`{"rows":2,"cols":2,"entries":[[0,1,2],[1,0,2]],"symmetric":true}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[0,1,2]],"symmetric":true}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[0,1,2]],"symmetric":false}`)
	// Shards without a cluster, and shards combined with symmetric.
	f.Add(`{"suite":"LP","scale":0.01,"shards":4}`)
	f.Add(`{"suite":"LP","scale":0.01,"shards":2,"symmetric":true}`)
	// Ambiguous multi-source requests.
	f.Add(`{"suite":"QCD","rows":2,"cols":2,"entries":[[0,0,1]]}`)
	f.Add(`{"suite":"QCD","matrix_market":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n"}`)
	// Malformed payloads: bad JSON, bad indices, bad dims, unknown suite.
	f.Add(`{"rows":2,"cols":2`)
	f.Add(`{"rows":-1,"cols":2,"entries":[[0,0,1]]}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[0.5,0,1]]}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[9,9,1]]}`)
	f.Add(`{"suite":"NotASuite"}`)
	f.Add(`{"rows":1000000000,"cols":1000000000,"entries":[[0,0,1]]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"x"`)
	f.Add(`{"matrix_market":"%%MatrixMarket matrix array real general\n-3 2\n"}`)

	f.Fuzz(func(t *testing.T, body string) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxBodyBytes = 1 << 16 // bound hostile payload cost per exec
		s := New(cfg)
		defer s.Close()

		req := httptest.NewRequest("POST", "/v1/matrices", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		code := rec.Code
		if code != 201 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 201 or an error status", code, body)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON response %q for body %q: %v", rec.Body.String(), body, err)
		}
		if code == 201 {
			// Anything accepted must be immediately servable: listed with
			// its dimensions and tunable state.
			if _, ok := parsed["id"]; !ok {
				t.Fatalf("201 response without an id: %q", rec.Body.String())
			}
		} else if _, ok := parsed["error"]; !ok {
			t.Fatalf("error status %d without an error field: %q", code, rec.Body.String())
		}
	})
}

// TestRegisterFuzzSeedsStatuses pins the documented status codes of the
// structured seed payloads (the fuzzer itself only requires "no panic,
// well-formed JSON").
func TestRegisterFuzzSeedsStatuses(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{`{"rows":3,"cols":3,"entries":[[0,0,1],[1,2,-2.5],[2,2,4]]}`, 201},
		{`{"rows":2,"cols":2,"entries":[[0,1,2],[1,0,2]],"symmetric":true}`, 201},
		{`{"rows":2,"cols":2,"entries":[[0,1,2]],"symmetric":true}`, 400},
		{`{"suite":"LP","scale":0.01,"shards":4}`, 400},                // no cluster attached
		{`{"suite":"QCD","rows":2,"cols":2,"entries":[[0,0,1]]}`, 400}, // ambiguous
		{`{"rows":2,"cols":2`, 400},
		{`{"suite":"NotASuite"}`, 400},
		{`{}`, 400},
	}
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/matrices", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// FuzzMulJSON exercises the POST /v1/matrices/{id}/mul payload path —
// the x vector plus the request options (tenant, class, deadline_ms)
// and the strict unknown-field decoding — against arbitrary bodies: the
// handler must never panic and must answer 200 or an error status with
// the uniform JSON error envelope.
func FuzzMulJSON(f *testing.F) {
	// Well-formed requests: bare, and every option populated.
	f.Add(`{"x":[1,2,3,4]}`)
	f.Add(`{"x":[1,2,3,4],"tenant":"acme","class":"latency"}`)
	f.Add(`{"x":[1,2,3,4],"tenant":"acme","class":"standard","deadline_ms":5000}`)
	f.Add(`{"x":[0,0,0,0],"class":"bulk"}`)
	// Option validation: unknown class, negative deadline, typo'd field
	// names (DisallowUnknownFields), wrong option types.
	f.Add(`{"x":[1,2,3,4],"class":"interactive"}`)
	f.Add(`{"x":[1,2,3,4],"deadline_ms":-1}`)
	f.Add(`{"x":[1,2,3,4],"tennant":"acme"}`)
	f.Add(`{"x":[1,2,3,4],"clas":"latency"}`)
	f.Add(`{"x":[1,2,3,4],"tenant":7}`)
	f.Add(`{"x":[1,2,3,4],"deadline_ms":"soon"}`)
	// Vector shape and type breakage.
	f.Add(`{"x":[1,2]}`)
	f.Add(`{"x":[]}`)
	f.Add(`{"x":[null,2,3,4]}`)
	f.Add(`{"x":["a",2,3,4]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"x"`)
	f.Add(`{"x":[1,2,3,4]`)

	f.Fuzz(func(t *testing.T, body string) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxBodyBytes = 1 << 16
		s := New(cfg)
		defer s.Close()
		registerTridiag(t, s)

		req := httptest.NewRequest("POST", "/v1/matrices/a/mul", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		code := rec.Code
		if code != 200 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 200 or an error status", code, body)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON response %q for body %q: %v", rec.Body.String(), body, err)
		}
		if code == 200 {
			if _, ok := parsed["y"]; !ok {
				t.Fatalf("200 response without y: %q", rec.Body.String())
			}
		} else if _, ok := parsed["error"]; !ok {
			t.Fatalf("error status %d without an error field: %q", code, rec.Body.String())
		}
	})
}

// TestMulFuzzSeedsStatuses pins the documented status codes of the
// structured mul seed payloads.
func TestMulFuzzSeedsStatuses(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{`{"x":[1,2,3,4]}`, 200},
		{`{"x":[1,2,3,4],"tenant":"acme","class":"latency"}`, 200},
		{`{"x":[1,2,3,4],"tenant":"acme","class":"standard","deadline_ms":5000}`, 200},
		{`{"x":[1,2,3,4],"class":"interactive"}`, 400},
		{`{"x":[1,2,3,4],"deadline_ms":-1}`, 400},
		{`{"x":[1,2,3,4],"tennant":"acme"}`, 400},
		{`{"x":[1,2]}`, 400},
		{`{"x":[1,2,3,4]`, 400},
		{`{}`, 400},
	}
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()
	registerTridiag(t, s)
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/matrices/a/mul", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// FuzzMulFrame exercises the binary tier of POST /v1/matrices/{id}/mul:
// an arbitrary body declared with an arbitrary Content-Length (len(body) +
// lenDelta, so the declaration can disagree with the body) under an
// arbitrary query string. The handler must never panic, and must answer
// either a complete frame — exactly 8·rows bytes holding the in-process
// bits for the x the body decodes to — or an enveloped JSON error: never
// a partial vector. A declaration over MaxBodyBytes is refused before any
// of the body is read. The request reads x into a vector recycled from a
// request served just before it, and the explicit little-endian codec
// answers with the in-place path's status and frame bytes. Seeds are
// TestMulFrameMalformed's table.
func FuzzMulFrame(f *testing.F) {
	good := appendF64LE(nil, []float64{1, 2, 3, 4})
	f.Add(good, "", 0)
	f.Add(good, "tenant=acme&class=latency&deadline_ms=5000&affinity=k", 0)
	f.Add(good[:24], "", 8)                      // short body
	f.Add(append(good[:32:32], 1, 2, 3), "", -3) // long body
	f.Add(good[:29], "", 0)                      // not a multiple of 8
	f.Add(good[:24], "", 0)                      // != 8*cols
	f.Add([]byte{}, "", 0)
	f.Add(good, "", -33) // no Content-Length
	f.Add(good, "tennant=acme", 0)
	f.Add(good, "tenant=%zz", 0)
	f.Add(good, "deadline_ms=-1", 0)
	f.Add(good, "deadline_ms=soon", 0)
	f.Add(good, "class=interactive", 0)
	f.Add(appendF64LE(nil, []float64{1, math.NaN(), 3, 4}), "", 0)
	f.Add(appendF64LE(nil, []float64{1, 2, math.Inf(-1), 4}), "", 0)
	f.Add(appendF64LE(nil, []float64{1e308, 1e308, 1e308, -1e308}), "", 0) // y overflows; frames carry it
	f.Add(make([]byte, 1<<17), "", 0)                                      // over MaxBodyBytes
	f.Add(good[:8], "", 1<<16)                                             // declared over MaxBodyBytes, body short
	f.Add(good[:13], "", 3)                                                // short body, declared a whole frame
	f.Add(good, "", -19)                                                   // long body, declared not whole

	f.Fuzz(func(t *testing.T, body []byte, query string, lenDelta int) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxBodyBytes = 1 << 16
		s := New(cfg)
		defer s.Close()
		registerTridiag(t, s)
		warm := httptest.NewRecorder()
		s.Handler().ServeHTTP(warm, frameRequest("/v1/matrices/a/mul", appendF64LE(nil, []float64{-7, 0.5, 9, 1e-3})))
		if warm.Code != 200 {
			t.Fatalf("warm-up mul: status %d", warm.Code)
		}

		declared := max(int64(len(body))+int64(lenDelta), -1)
		var recs [2]*httptest.ResponseRecorder
		for i, native := range []bool{true, false} {
			withCodec(native, func() {
				cr := &countingReader{r: bytes.NewReader(body)}
				req, err := http.NewRequest("POST", "/v1/matrices/a/mul?"+query, cr)
				if err != nil {
					t.Skip("query does not form a URL")
				}
				req.Header.Set("Content-Type", mediaF64LE)
				req.ContentLength = declared
				recs[i] = httptest.NewRecorder()
				s.Handler().ServeHTTP(recs[i], req)
				if declared > cfg.MaxBodyBytes && (recs[i].Code != 413 && recs[i].Code != 400 || cr.reads != 0) {
					t.Fatalf("%d bytes declared over the %d-byte cap: status %d after %d body reads, want 413 (or a query's 400) unread",
						declared, cfg.MaxBodyBytes, recs[i].Code, cr.reads)
				}
			})
		}
		rec := recs[0]
		if rec.Code != recs[1].Code || rec.Code == 200 && !bytes.Equal(rec.Body.Bytes(), recs[1].Body.Bytes()) {
			t.Fatalf("in place: %d %q; explicit codec: %d %q", rec.Code, rec.Body.Bytes(), recs[1].Code, recs[1].Body.Bytes())
		}
		if declared >= 0 && declared != int64(len(body)) && rec.Code != 400 && rec.Code != 413 {
			t.Fatalf("a %d-byte body declared %d answered %d, want 400 or 413", len(body), declared, rec.Code)
		}
		if rec.Code == 200 {
			if declared != 32 || len(body) != 32 {
				t.Fatalf("200 for a %d-byte body declared %d, want both 32", len(body), declared)
			}
			want, err := s.MulOpts("a", decodeF64LE(body), MulOptions{})
			if err != nil {
				t.Fatalf("HTTP served what in-process refuses: %v", err)
			}
			if ct := rec.Header().Get("Content-Type"); ct != mediaF64LE || !bytes.Equal(rec.Body.Bytes(), appendF64LE(nil, want)) {
				t.Fatalf("200 answered %q %x, want the frame %x", ct, rec.Body.Bytes(), appendF64LE(nil, want))
			}
			return
		}
		var e errorResponse
		if rec.Code < 400 || rec.Code > 599 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code == "" {
			t.Fatalf("status %d body %q: want a frame or an error envelope", rec.Code, rec.Body.String())
		}
	})
}

// FuzzBandFrame exercises band-frame registration (what HTTPTransport
// sends a member) against arbitrary bytes: never a panic; a 201 only for
// a frame decodeBand accepts, registered with the frame's own dimensions
// and immediately servable; otherwise an enveloped error and nothing
// registered. Seeds are TestBandFrameCorruptRejected's corrupt frames
// plus valid ones.
func FuzzBandFrame(f *testing.F) {
	for _, frame := range corruptBands() {
		f.Add(frame)
	}
	m := spmv.NewMatrix(2, 3)
	_ = m.Set(0, 0, 2)
	_ = m.Set(0, 2, 1)
	_ = m.Set(1, 1, 3)
	f.Add(encodeBand(m))
	dup := spmv.NewMatrix(3, 3)
	_ = dup.Set(2, 1, 0.1)
	_ = dup.Set(0, 0, 1)
	_ = dup.Set(2, 1, 0.2)
	f.Add(encodeBand(dup))

	f.Fuzz(func(t *testing.T, frame []byte) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxBodyBytes = 1 << 16
		s := New(cfg)
		defer s.Close()

		req := httptest.NewRequest("POST", "/v1/matrices?id=b&name=fuzz", bytes.NewReader(frame))
		req.Header.Set("Content-Type", mediaBand)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		if rec.Code == 201 {
			dec, err := decodeBand(frame)
			if err != nil {
				t.Fatalf("201 for a frame decodeBand rejects: %v", err)
			}
			var info MatrixInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatal(err)
			}
			rows, cols := dec.Dims()
			if info.ID != "b" || info.Rows != rows || info.Cols != cols || info.Symmetric {
				t.Fatalf("registered as %+v, frame says %dx%d general", info, rows, cols)
			}
			if y, err := s.MulOpts("b", make([]float64, cols), MulOptions{}); err != nil || len(y) != rows {
				t.Fatalf("registered band does not serve: %d rows, %v", len(y), err)
			}
			return
		}
		var e errorResponse
		if rec.Code < 400 || rec.Code > 599 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error.Code == "" {
			t.Fatalf("status %d body %q: want 201 or an error envelope", rec.Code, rec.Body.String())
		}
		if n := len(s.reg.list()); n != 0 {
			t.Fatalf("a rejected frame left %d matrices registered", n)
		}
	})
}

// FuzzSolveJSON exercises the POST /v1/matrices/{id}/solve payload path —
// method selection, tolerance/budget validation, vector shape checks —
// against arbitrary bodies: the handler must never panic, must answer 201
// or a 4xx with a well-formed JSON object, must never leave more resident
// sessions than the cap, and the server must close cleanly afterwards
// (sessions drain, no goroutine leak under the race detector).
func FuzzSolveJSON(f *testing.F) {
	// Well-formed requests, both methods.
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":1e-8,"max_iters":50}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"x0":[0,0,0,0]}`)
	f.Add(`{"method":"power","tol":1e-6,"max_iters":100}`)
	f.Add(`{"method":"power","x0":[1,0,0,0]}`)
	// Malformed tolerances and budgets.
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":-1}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":NaN}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":1e999}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"max_iters":-7}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"max_iters":100001}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"max_iters":9223372036854775808}`)
	// NaN-ish and shape-broken vectors (JSON cannot spell NaN; these probe
	// the decoder's rejections and the length checks).
	f.Add(`{"method":"cg","b":[null,2,3,4]}`)
	f.Add(`{"method":"cg","b":["a",2,3,4]}`)
	f.Add(`{"method":"cg","b":[1,2]}`)
	f.Add(`{"method":"cg"}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"x0":[1]}`)
	// Method confusion and junk.
	f.Add(`{"method":"power","b":[1,2,3,4]}`)
	f.Add(`{"method":"jacobi","b":[1,2,3,4]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"cg"`)
	f.Add(`{"method":"cg","b":[1,2,3,4]`)

	f.Fuzz(func(t *testing.T, body string) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxSessions = 2
		cfg.MaxBodyBytes = 1 << 16
		s := New(cfg)
		defer s.Close()
		registerTridiag(t, s)
		h := s.Handler()

		req := httptest.NewRequest("POST", "/v1/matrices/a/solve", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if code := rec.Code; code != 201 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 201 or an error status", code, body)
		}
		var decoded map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.String(), body)
		}
		if rec.Code == 201 {
			sid, _ := decoded["sid"].(string)
			if sid == "" {
				t.Fatalf("201 without sid: %q", rec.Body.String())
			}
			// The created session must be observable and cancellable.
			rec2 := httptest.NewRecorder()
			h.ServeHTTP(rec2, httptest.NewRequest("GET", "/v1/solve/"+sid, nil))
			if rec2.Code != 200 {
				t.Fatalf("GET created session: %d", rec2.Code)
			}
			rec3 := httptest.NewRecorder()
			h.ServeHTTP(rec3, httptest.NewRequest("DELETE", "/v1/solve/"+sid, nil))
			if rec3.Code != 200 {
				t.Fatalf("DELETE created session: %d", rec3.Code)
			}
		}
		if got := len(s.Sessions()); got > cfg.MaxSessions {
			t.Fatalf("%d resident sessions exceed the cap %d", got, cfg.MaxSessions)
		}
		waitEnd := time.Now().Add(5 * time.Second)
		for _, sess := range s.Sessions() {
			for sess.State == "running" {
				if time.Now().After(waitEnd) {
					t.Fatalf("session %s still running", sess.SID)
				}
				var err error
				if sess, err = s.SolveStatus(sess.SID, 50*time.Millisecond); err != nil {
					break
				}
			}
		}
	})
}

// FuzzPatchJSON exercises the PATCH /v1/matrices/{id} payload path — the
// delta batch decoding, op-kind/coordinate/finiteness validation, and
// batch atomicity — against arbitrary bodies: the handler must never
// panic, must answer 200 or an error status with the uniform JSON
// envelope, and must leave the matrix servable either way (a rejected
// batch applies nothing; an applied one only changes values).
func FuzzPatchJSON(f *testing.F) {
	// Well-formed batches, every op kind.
	f.Add(`{"deltas":[{"op":"set","row":0,"col":1,"val":2.5}]}`)
	f.Add(`{"deltas":[{"op":"add","row":3,"col":3,"val":-1.25},{"op":"del","row":0,"col":0}]}`)
	f.Add(`{"deltas":[{"op":"set","row":1,"col":2,"val":1},{"op":"set","row":1,"col":2,"val":2},{"op":"del","row":1,"col":2}]}`)
	f.Add(`{"deltas":[{"op":"del","row":2,"col":0}]}`)
	// Validation: unknown op, out-of-range coordinates, atomicity probes
	// (valid op before the invalid one must not apply).
	f.Add(`{"deltas":[{"op":"replace","row":0,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":4,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":-1,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":0,"val":1},{"op":"set","row":99,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":0,"val":1e999}]}`)
	// Shape and type breakage, strict decoding.
	f.Add(`{"deltas":[]}`)
	f.Add(`{"deltas":null}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"patch"`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":0,"val":1}]`)
	f.Add(`{"deltas":[{"op":"set","row":0.5,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","rows":0,"col":0,"val":1}]}`)
	f.Add(`{"delta":[{"op":"set","row":0,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":2147483648,"col":0,"val":1}]}`)

	f.Fuzz(func(t *testing.T, body string) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxBodyBytes = 1 << 16
		cfg.RecompactThreshold = -1 // keep execs deterministic: no background fold
		s := New(cfg)
		defer s.Close()
		registerTridiag(t, s)
		h := s.Handler()

		req := httptest.NewRequest("PATCH", "/v1/matrices/a", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		code := rec.Code
		if code != 200 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 200 or an error status", code, body)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON response %q for body %q: %v", rec.Body.String(), body, err)
		}
		if code == 200 {
			if seq, _ := parsed["seq"].(float64); seq < 1 {
				t.Fatalf("200 response without a positive seq: %q", rec.Body.String())
			}
		} else if _, ok := parsed["error"]; !ok {
			t.Fatalf("error status %d without an error field: %q", code, rec.Body.String())
		}
		// Whatever the batch did, the matrix must still serve.
		rec2 := httptest.NewRecorder()
		h.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/matrices/a/mul",
			strings.NewReader(`{"x":[1,1,1,1]}`)))
		if rec2.Code != 200 {
			t.Fatalf("mul after patch (%d): %d %q", code, rec2.Code, rec2.Body.String())
		}
	})
}

// TestPatchFuzzSeedsStatuses pins the documented status codes of the
// structured patch seed payloads.
func TestPatchFuzzSeedsStatuses(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{`{"deltas":[{"op":"set","row":0,"col":1,"val":2.5}]}`, 200},
		{`{"deltas":[{"op":"add","row":3,"col":3,"val":-1.25},{"op":"del","row":0,"col":0}]}`, 200},
		{`{"deltas":[{"op":"replace","row":0,"col":0,"val":1}]}`, 400},
		{`{"deltas":[{"op":"set","row":4,"col":0,"val":1}]}`, 400},
		{`{"deltas":[{"op":"set","row":0,"col":0,"val":1},{"op":"set","row":99,"col":0,"val":1}]}`, 400},
		{`{"deltas":[]}`, 400},
		{`{"delta":[{"op":"set","row":0,"col":0,"val":1}]}`, 400}, // unknown field
		{`{}`, 400},
		{`{"deltas":[{"op":"set","row":0,"col":0,"val":1}]`, 400},
	}
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.RecompactThreshold = -1
	s := New(cfg)
	defer s.Close()
	registerTridiag(t, s)
	for _, tc := range cases {
		req := httptest.NewRequest("PATCH", "/v1/matrices/a", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
	// Ghost id: 404 through the envelope.
	req := httptest.NewRequest("PATCH", "/v1/matrices/ghost",
		strings.NewReader(`{"deltas":[{"op":"set","row":0,"col":0,"val":1}]}`))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 404 {
		t.Errorf("ghost patch: status %d, want 404", rec.Code)
	}
}
