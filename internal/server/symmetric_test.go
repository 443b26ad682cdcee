package server

import (
	"errors"
	"strings"
	"sync"
	"testing"

	spmv "repro"
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

// TestSymmetricServingDeterminism: a symmetric matrix served by servers
// with different thread counts, worker pools, and batch widths returns
// bitwise-identical responses — the Config.Deterministic contract
// extended to the symmetric operator.
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
