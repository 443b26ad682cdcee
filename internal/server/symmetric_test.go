package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/matrix"
)

// testSymmetric builds a small deterministic symmetric matrix.
func testSymmetric(t testing.TB, n, nnz int, seed int64) *spmv.Matrix {
	t.Helper()
	sym, err := spmv.Symmetrize(testMatrix(t, n, n, nnz, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sym
}

func boolPtr(b bool) *bool { return &b }

// TestSymmetricRegistration covers the storage-family selection matrix:
// explicit symmetric, explicit general, auto-detection, and rejection of
// symmetric-required registrations for asymmetric matrices.
func TestSymmetricRegistration(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	sym := testSymmetric(t, 200, 1200, 1)
	asym := testMatrix(t, 200, 200, 1200, 2)

	info, err := s.RegisterOpts("sym", "sym", sym, RegisterOptions{Symmetric: boolPtr(true)})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Symmetric || !strings.HasPrefix(info.Kernel, "symcsr") {
		t.Errorf("explicit symmetric: %+v", info)
	}
	if info.Footprint >= info.Baseline {
		t.Errorf("symmetric footprint %d not below CSR32 baseline %d", info.Footprint, info.Baseline)
	}

	ginfo, err := s.RegisterOpts("gen", "gen", sym, RegisterOptions{Symmetric: boolPtr(false)})
	if err != nil {
		t.Fatal(err)
	}
	if ginfo.Symmetric || strings.HasPrefix(ginfo.Kernel, "symcsr") {
		t.Errorf("pinned general came back symmetric: %+v", ginfo)
	}
	if info.MatrixBytes <= 0 || float64(info.MatrixBytes) > 0.8*float64(ginfo.MatrixBytes) {
		t.Errorf("symmetric matrix stream %d B vs general %d B: no meaningful saving",
			info.MatrixBytes, ginfo.MatrixBytes)
	}

	// AutoSymmetric (on in DefaultConfig) detects symmetry without the flag.
	ainfo, err := s.Register("auto", "auto", sym)
	if err != nil {
		t.Fatal(err)
	}
	if !ainfo.Symmetric {
		t.Errorf("auto-detect missed a symmetric matrix: %+v", ainfo)
	}
	// ... and leaves asymmetric matrices general.
	ninfo, err := s.Register("asym", "asym", asym)
	if err != nil {
		t.Fatal(err)
	}
	if ninfo.Symmetric {
		t.Errorf("asymmetric matrix served symmetric: %+v", ninfo)
	}

	// Requiring symmetry for an asymmetric matrix fails typed.
	if _, err := s.RegisterOpts("bad", "bad", asym, RegisterOptions{Symmetric: boolPtr(true)}); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("asymmetric require: err = %v, want ErrNotSymmetric", err)
	}
	if _, err := s.RegisterOpts("rect", "rect", testMatrix(t, 3, 5, 8, 3), RegisterOptions{Symmetric: boolPtr(true)}); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("rectangular require: err = %v, want ErrNotSymmetric", err)
	}
}

// TestServedFamilyIsWhatStreams pins the storage-family rule and its
// outside-visible consequence. Auto mode keeps the symmetric store only when
// it is smaller than the general encoding that would otherwise stream
// (general wins ties); "symmetric": true requires it or refuses typed;
// false pins general. Whatever family serves, MatrixInfo.Footprint (what
// was built) equals MatrixInfo.MatrixBytes (what each sweep streams) at
// registration, after a re-tune promotion and after recompaction — one
// resident encoding per snapshot. The diagonal matrix is the tie: its
// symmetric store costs exactly a one-part CSR32, so a single-thread server
// serves it general, while every further row part adds a row pointer to the
// general encoding and hands symmetric the win.
func TestServedFamilyIsWhatStreams(t *testing.T) {
	fem, err := spmv.GenerateSuite("FEM/Cantilever", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fem, err = spmv.Symmetrize(fem); err != nil {
		t.Fatal(err)
	}
	diag := spmv.NewMatrix(90, 90)
	for i := 0; i < 90; i++ {
		_ = diag.Set(i, i, float64(i+1))
	}
	const general, symmetric, refused = "general", "symmetric", "refused"
	modes := []struct {
		name string
		opts RegisterOptions
	}{{"auto", RegisterOptions{}}, {"required", RegisterOptions{Symmetric: boolPtr(true)}}, {"pinned", RegisterOptions{Symmetric: boolPtr(false)}}}
	for _, threads := range []int{1, 2} {
		diagAuto := general
		if threads > 1 {
			diagAuto = symmetric
		}
		cfg := DefaultConfig()
		cfg.Threads = threads
		cfg.Workers = threads
		cfg.MaxBatch = 8
		cfg.BatchWindow = 5 * time.Millisecond
		cfg.RetuneMinRequests = 8
		s := New(cfg)
		for _, tc := range []struct {
			name string
			m    *spmv.Matrix
			want [3]string // the family served under each of modes
		}{
			{"poisson", poissonMatrix(t, 12), [3]string{symmetric, symmetric, general}},
			{"fem", fem, [3]string{symmetric, symmetric, general}},
			{"diagonal", diag, [3]string{diagAuto, symmetric, general}},
			{"asymmetric", testMatrix(t, 120, 120, 900, 6), [3]string{general, refused, general}},
			{"rectangular", testMatrix(t, 60, 140, 700, 8), [3]string{general, refused, general}},
		} {
			for k, mode := range modes {
				family := tc.want[k]
				id := fmt.Sprintf("%s/%s/threads=%d", tc.name, mode.name, threads)
				info, err := s.RegisterOpts(id, tc.name, tc.m, mode.opts)
				if family == refused {
					if !errors.Is(err, ErrNotSymmetric) {
						t.Errorf("%s: err = %v, want ErrNotSymmetric", id, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if info.Symmetric != (family == symmetric) {
					t.Errorf("%s: served symmetric=%v, want the %s family (footprint %d B)", id, info.Symmetric, family, info.Footprint)
				}
				built := func(stage string, wantGen int) {
					t.Helper()
					info := mustEntry(t, s, id).listing()
					if info.Footprint != info.MatrixBytes || info.Generation != wantGen || info.Symmetric != (family == symmetric) {
						t.Errorf("%s %s: footprint %d B, matrix stream %d B, generation %d, symmetric=%v; want equal bytes, generation %d, the %s family",
							id, stage, info.Footprint, info.MatrixBytes, info.Generation, info.Symmetric, wantGen, family)
					}
				}
				built("at registration", 0)

				// A wide workload: general matrices served CSR are promoted
				// to narrowed indices (bar the diagonal, where narrowing
				// saves 2 of a row's 20 bytes — under the promotion margin
				// once the vectors are counted); a symmetric one has no
				// candidate inside its family and the re-tuner never switches
				// families. A register-blocked part narrows 2 of a 4×4 tile's
				// 132 bytes, so whether a blocked matrix clears the margin
				// depends on its other parts; only its bytes are pinned.
				blocked := false
				for _, d := range mustEntry(t, s, id).cur.Load().op.Decisions() {
					blocked = blocked || d.Format == "BCSR"
				}
				_, cols := tc.m.Dims()
				xs := make([][]float64, 8)
				for v := range xs {
					xs[v] = testVector(cols, int64(v))
				}
				for round := 0; round < 4; round++ {
					burst(t, s, id, xs)
				}
				gen := 0
				if s.evaluateEntry(mustEntry(t, s, id)) {
					gen++
				}
				if promoted := gen == 1; !blocked && promoted != (family == general && tc.name != "diagonal") {
					t.Errorf("%s: re-tune promoted=%v under the %s family", id, promoted, family)
				}
				built("after the re-tune", gen)

				if _, err := s.Patch(id, []Delta{{Op: "add", Row: 1, Col: 1, Val: 0.5}}); err != nil {
					t.Fatal(err)
				}
				if err := s.Recompact(id); err != nil {
					t.Fatal(err)
				}
				built("after recompaction", gen+1)
			}
		}
		s.Close()
	}

	// The register-blocked side of the general family: BCSR with tiles of
	// two or more rows. A Cantilever twin's 4×4 tiles fill completely, so
	// it registers 4×4 in every part; an LP twin's best such tile costs
	// more than CSR32 (its best tile overall, 1×2, is the one the r ≥ 2
	// rule keeps out), so it stays CSR32.
	s := New(DefaultConfig())
	defer s.Close()
	for _, tc := range []struct {
		suite  string
		format string
		shape  matrix.BlockShape
		bits   int
	}{
		{"FEM/Cantilever", "BCSR", matrix.BlockShape{R: 4, C: 4}, 32},
		{"LP", "CSR", matrix.BlockShape{R: 1, C: 1}, 32},
	} {
		m, err := spmv.GenerateSuite(tc.suite, 0.02, 7)
		if err != nil {
			t.Fatal(err)
		}
		info, err := s.RegisterOpts(tc.suite, tc.suite, m, RegisterOptions{Symmetric: boolPtr(false)})
		if err != nil {
			t.Fatal(err)
		}
		if info.Footprint != info.MatrixBytes {
			t.Errorf("%s: footprint %d B, matrix stream %d B", tc.suite, info.Footprint, info.MatrixBytes)
		}
		for _, d := range mustEntry(t, s, tc.suite).cur.Load().op.Decisions() {
			if d.Format != tc.format || d.Shape != tc.shape || d.IndexBits != tc.bits {
				t.Errorf("%s: a part registered %s %v/%d, want %s %v/%d",
					tc.suite, d.Format, d.Shape, d.IndexBits, tc.format, tc.shape, tc.bits)
			}
		}
	}
}

func mustEntry(t testing.TB, s *Server, id string) *Entry {
	t.Helper()
	e, err := s.Registry().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSymmetricServingDeterminism: a symmetric matrix served by servers
// with different thread counts, worker pools, and batch widths returns
// bitwise-identical responses — the bitwise serving contract extended to
// the symmetric operator.
func TestSymmetricServingDeterminism(t *testing.T) {
	sym := testSymmetric(t, 300, 3000, 4)
	xs := make([][]float64, 6)
	for i := range xs {
		xs[i] = testVector(300, int64(i+10))
	}

	// Reference bits: the serial symmetric operator.
	sop, err := spmv.CompileSymmetric(sym)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(xs))
	for i, x := range xs {
		if want[i], err = sop.Mul(x); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		threads, workers, maxBatch int
	}{
		{1, 1, 1}, {2, 2, 4}, {4, 4, 8},
	} {
		cfg := DefaultConfig()
		cfg.Threads = tc.threads
		cfg.Workers = tc.workers
		cfg.MaxBatch = tc.maxBatch
		cfg.Adaptive = false
		s := New(cfg)
		if _, err := s.RegisterOpts("m", "m", sym, RegisterOptions{Symmetric: boolPtr(true)}); err != nil {
			s.Close()
			t.Fatal(err)
		}
		// Concurrent requests to force fused widths > 1.
		var wg sync.WaitGroup
		got := make([][]float64, len(xs))
		errs := make([]error, len(xs))
		for i := range xs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = s.MulOpts("m", xs[i], MulOptions{})
			}(i)
		}
		wg.Wait()
		for i := range xs {
			if errs[i] != nil {
				s.Close()
				t.Fatal(errs[i])
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					s.Close()
					t.Fatalf("threads=%d batch=%d req %d row %d: %x vs %x",
						tc.threads, tc.maxBatch, i, j, got[i][j], want[i][j])
				}
			}
		}
		st := s.Stats()
		if st.Requests != uint64(len(xs)) {
			t.Errorf("requests %d, want %d", st.Requests, len(xs))
		}
		s.Close()
	}
}

// TestSymmetricUnderShardedCluster: a symmetric matrix registered on the
// sharded cluster path still serves correctly — bands are rectangular and
// stored general, so sharded bits stay identical to general single-node
// serving, while the symmetric single-node operator agrees within
// floating-point reassociation tolerance.
func TestSymmetricUnderShardedCluster(t *testing.T) {
	sym := testSymmetric(t, 400, 4000, 5)
	x := testVector(400, 99)

	// General single-node serving: the cluster's bit reference.
	gsrv := New(DefaultConfig())
	defer gsrv.Close()
	if _, err := gsrv.RegisterOpts("m", "m", sym, RegisterOptions{Symmetric: boolPtr(false)}); err != nil {
		t.Fatal(err)
	}
	want, err := gsrv.MulOpts("m", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Symmetric single-node serving: tolerance reference.
	ssrv := New(DefaultConfig())
	defer ssrv.Close()
	if _, err := ssrv.RegisterOpts("m", "m", sym, RegisterOptions{Symmetric: boolPtr(true)}); err != nil {
		t.Fatal(err)
	}
	ysym, err := ssrv.MulOpts("m", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(ysym, want); d > 1e-9 {
		t.Fatalf("symmetric vs general serving diverged by %g", d)
	}

	for _, k := range []int{2, 4} {
		transports := make([]Transport, k)
		members := make([]*Server, k)
		for i := range transports {
			members[i] = New(DefaultConfig())
			transports[i] = NewLocalTransport("node", members[i])
		}
		cluster, err := NewCluster(transports, ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.RegisterSharded("m", "m", sym, k); err != nil {
			t.Fatal(err)
		}
		got, err := cluster.MulOpts("m", x, ClusterMulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("K=%d sharded row %d: %x vs general single-node %x", k, i, got[i], want[i])
			}
		}
		// Members hold general band entries even with AutoSymmetric on.
		for _, ms := range members {
			for _, info := range ms.Matrices() {
				if info.Symmetric {
					t.Errorf("K=%d member band %q stored symmetric", k, info.ID)
				}
			}
			ms.Close()
		}
	}
}

// TestFailedRegistrationFreesID: a registration rejected during prepare
// (symmetric required, asymmetric matrix) must not leave a
// half-initialized entry behind or burn the id.
func TestFailedRegistrationFreesID(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	asym := testMatrix(t, 50, 50, 200, 6)
	if _, err := s.RegisterOpts("m", "m", asym, RegisterOptions{Symmetric: boolPtr(true)}); !errors.Is(err, ErrNotSymmetric) {
		t.Fatalf("err = %v, want ErrNotSymmetric", err)
	}
	if got := len(s.Matrices()); got != 0 {
		t.Errorf("%d entries listed after failed registration, want 0", got)
	}
	if st := s.Stats(); st.Registered != 0 {
		t.Errorf("registered counter %d, want 0", st.Registered)
	}
	// The id is free for a corrected retry.
	if _, err := s.Register("m", "m", asym); err != nil {
		t.Fatalf("retry after failed registration: %v", err)
	}
}
