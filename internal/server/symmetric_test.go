package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

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

	// TrySymmetric (on in DefaultConfig) detects symmetry without the flag.
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
// registration and after recompaction — one resident encoding per
// snapshot. The diagonal matrix sits nearest the line: its symmetric store
// holds every entry (12 bytes each with 32-bit indices, plus n+1 row
// pointers), the general one holds the same entries at 10 bytes with 16-bit
// indices plus one row pointer per row and part. Its y is one rounded
// product per row in either family, so which family wins moves no bit.
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
		const n = 90
		diagBytes := map[string]int64{symmetric: 12*n + 8*(n+1), general: 10*n + 8*int64(n+threads)}
		diagAuto := symmetric
		if diagBytes[general] <= diagBytes[symmetric] { // general wins ties
			diagAuto = general
		}
		cfg := DefaultConfig()
		cfg.Threads = threads
		cfg.Workers = threads
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
				if tc.name == "diagonal" && info.Footprint != diagBytes[family] {
					t.Errorf("%s: footprint %d B, want %d B for the %s family", id, info.Footprint, diagBytes[family], family)
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

				if _, err := s.Patch(id, []Delta{{Op: "add", Row: 1, Col: 1, Val: 0.5}}); err != nil {
					t.Fatal(err)
				}
				if err := s.Recompact(id); err != nil {
					t.Fatal(err)
				}
				built("after recompaction", 1)
			}
		}
		s.Close()
	}

	// The register-blocked side of the general family: BCSR with tiles of
	// two or more rows. A Cantilever twin's 4×4 tiles fill completely, so
	// it registers 4×4 in every part; an LP twin's best such tile costs
	// more than CSR (its best tile overall, 1×2, is the one the r ≥ 2 rule
	// keeps out), so it stays CSR. Both twins have under 65 536 columns at
	// this scale (Cantilever 1 240, LP 22 000), so registration narrows
	// both to 16-bit indices.
	s := New(DefaultConfig())
	defer s.Close()
	for _, tc := range []struct {
		suite  string
		format string
		shape  matrix.BlockShape
		bits   int
	}{
		{"FEM/Cantilever", "BCSR", matrix.BlockShape{R: 4, C: 4}, 16},
		{"LP", "CSR", matrix.BlockShape{R: 1, C: 1}, 16},
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
	checkDecisionPins(t)
}

// checkDecisionPins is the last part of TestServedFamilyIsWhatStreams: it
// pins what registration serves under the default configuration —
// kernel, family, footprint and the bits of y for a seeded x — for every
// suite twin, every square twin symmetrized, Poisson-150 and the 90×90
// diagonal, at 1 and 2 threads. The literals are independent of how the
// decision is made: any change to which family wins, to either family's
// encoding or to its bits shows here.
func checkDecisionPins(t *testing.T) {
	inputs := map[string]*spmv.Matrix{"poisson150": poissonMatrix(t, 150)}
	for _, name := range spmv.SuiteNames() {
		m, err := spmv.GenerateSuite(name, 0.01, 5)
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = m
		if r, c := m.Dims(); r == c {
			if inputs[name+"+sym"], err = spmv.Symmetrize(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	diag := spmv.NewMatrix(90, 90)
	for i := 0; i < 90; i++ {
		_ = diag.Set(i, i, float64(i+1))
	}
	inputs["diagonal90"] = diag
	pins := []struct {
		name      string
		threads   int
		kernel    string
		symmetric bool
		footprint int64
		yHash     uint64
	}{
		{"Dense", 1, "bcsr4x4/16", false, 3298, 0x4271204a1aff63e},
		{"Dense+sym", 1, "symcsr", true, 2688, 0xf1629a410f3c53b4},
		{"Protein", 1, "bcsr2x2/16", false, 368648, 0xcdc42eeef73270c4},
		{"Protein+sym", 1, "symcsr", true, 361016, 0x2dee4e5a141a63ea},
		{"FEM/Spheres", 1, "bcsr2x2/16", false, 509792, 0x8f97cde1d07340f8},
		{"FEM/Spheres+sym", 1, "symcsr", true, 527748, 0x3cfef0314777c55c},
		{"FEM/Cantilever", 1, "bcsr4x4/16", false, 323648, 0x1134628ea8d08f89},
		{"FEM/Cantilever+sym", 1, "symcsr", true, 356496, 0x76ef204dc97449ac},
		{"Wind Tunnel", 1, "bcsr2x2/16", false, 1008056, 0x802536debd0eec53},
		{"Wind Tunnel+sym", 1, "symcsr", true, 1222368, 0xd53d5493d7123dd0},
		{"FEM/Harbor", 1, "csr16/singleloop", false, 243058, 0x8bd3c1d493107ba2},
		{"FEM/Harbor+sym", 1, "symcsr", true, 213144, 0x5d3d4a79c5db695b},
		{"QCD", 1, "csr16/singleloop", false, 194288, 0x82be04e34dda343f},
		{"QCD+sym", 1, "symcsr", true, 121084, 0x6c952d03b2acb3d7},
		{"FEM/Ship", 1, "bcsr2x2/16", false, 365198, 0x26bbbc151996475e},
		{"FEM/Ship+sym", 1, "symcsr", true, 445052, 0x6b2ea707844e1b0},
		{"Economics", 1, "csr16/singleloop", false, 142778, 0x483c3ac2d157fcd4},
		{"Economics+sym", 1, "symcsr", true, 167852, 0x46a4a3e56d61138f},
		{"Epidemiology", 1, "csr16/singleloop", false, 253270, 0x434c95b42774929a},
		{"Epidemiology+sym", 1, "symcsr", true, 224620, 0xff692a2347663d32},
		{"FEM/Accelerator", 1, "csr16/singleloop", false, 270168, 0x570cd7caf890cd24},
		{"FEM/Accelerator+sym", 1, "symcsr", true, 319876, 0xce52707f43b099d9},
		{"Circuit", 1, "csr16/singleloop", false, 88698, 0xb9184500c5b43121},
		{"Circuit+sym", 1, "symcsr", true, 103628, 0xcfa80bd5ac9cdab0},
		{"webbase", 1, "csr16/singleloop", false, 362788, 0x2f07b95b666885d1},
		{"webbase+sym", 1, "symcsr", true, 419272, 0x3a0f2fb79b4d60e},
		{"LP", 1, "csr16/singleloop", false, 1044654, 0xc2f6c946c8d69b36},
		{"poisson150", 1, "symcsr", true, 986408, 0x23c1bc28f970289e},
		{"diagonal90", 1, "csr16/singleloop", false, 1628, 0x13d7b0e13f5c12fd},
		{"Dense", 2, "parallel[2]", false, 3396, 0x4271204a1aff63e},
		{"Dense+sym", 2, "symcsr[2]", true, 2688, 0xf1629a410f3c53b4},
		{"Protein", 2, "parallel[2]", false, 368656, 0xcdc42eeef73270c4},
		{"Protein+sym", 2, "symcsr[2]", true, 361016, 0x2dee4e5a141a63ea},
		{"FEM/Spheres", 2, "parallel[2]", false, 509800, 0x8f97cde1d07340f8},
		{"FEM/Spheres+sym", 2, "symcsr[2]", true, 527748, 0x3cfef0314777c55c},
		{"FEM/Cantilever", 2, "parallel[2]", false, 327800, 0x1134628ea8d08f89},
		{"FEM/Cantilever+sym", 2, "symcsr[2]", true, 356496, 0x76ef204dc97449ac},
		{"Wind Tunnel", 2, "parallel[2]", false, 1101034, 0x802536debd0eec53},
		{"Wind Tunnel+sym", 2, "symcsr[2]", true, 1222368, 0xd53d5493d7123dd0},
		{"FEM/Harbor", 2, "parallel[2]", false, 243066, 0x8bd3c1d493107ba2},
		{"FEM/Harbor+sym", 2, "symcsr[2]", true, 213144, 0x5d3d4a79c5db695b},
		{"QCD", 2, "parallel[2]", false, 194296, 0x82be04e34dda343f},
		{"QCD+sym", 2, "symcsr[2]", true, 121084, 0x6c952d03b2acb3d7},
		{"FEM/Ship", 2, "parallel[2]", false, 400010, 0x26bbbc151996475e},
		{"FEM/Ship+sym", 2, "symcsr[2]", true, 445052, 0x6b2ea707844e1b0},
		{"Economics", 2, "parallel[2]", false, 142786, 0x483c3ac2d157fcd4},
		{"Economics+sym", 2, "symcsr[2]", true, 167852, 0x46a4a3e56d61138f},
		{"Epidemiology", 2, "parallel[2]", false, 253278, 0x434c95b42774929a},
		{"Epidemiology+sym", 2, "symcsr[2]", true, 224620, 0xff692a2347663d32},
		{"FEM/Accelerator", 2, "parallel[2]", false, 270176, 0x570cd7caf890cd24},
		{"FEM/Accelerator+sym", 2, "symcsr[2]", true, 319876, 0xce52707f43b099d9},
		{"Circuit", 2, "parallel[2]", false, 88706, 0xb9184500c5b43121},
		{"Circuit+sym", 2, "symcsr[2]", true, 103628, 0xcfa80bd5ac9cdab0},
		{"webbase", 2, "parallel[2]", false, 362796, 0x2f07b95b666885d1},
		{"webbase+sym", 2, "symcsr[2]", true, 419272, 0x3a0f2fb79b4d60e},
		{"LP", 2, "parallel[2]", false, 1044662, 0xc2f6c946c8d69b36},
		{"poisson150", 2, "symcsr[2]", true, 986408, 0x23c1bc28f970289e},
		{"diagonal90", 2, "parallel[2]", false, 1636, 0x13d7b0e13f5c12fd},
	}
	servers := map[int]*Server{}
	for _, threads := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Threads, cfg.Workers = threads, threads
		servers[threads] = New(cfg)
		defer servers[threads].Close()
	}
	for _, p := range pins {
		m := inputs[p.name]
		if m == nil {
			t.Fatalf("no input %q", p.name)
		}
		s := servers[p.threads]
		info, err := s.Register(p.name, p.name, m)
		if err != nil {
			t.Fatal(err)
		}
		_, cols := m.Dims()
		h := fnv.New64a()
		for _, v := range mulBits(t, s, p.name, testVector(cols, 11)) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if info.Kernel != p.kernel || info.Symmetric != p.symmetric || info.Footprint != p.footprint || h.Sum64() != p.yHash {
			t.Errorf("%s threads=%d: %s symmetric=%v %d B y=%#x; pinned %s symmetric=%v %d B y=%#x",
				p.name, p.threads, info.Kernel, info.Symmetric, info.Footprint, h.Sum64(),
				p.kernel, p.symmetric, p.footprint, p.yHash)
		}
	}
}

func mustEntry(t testing.TB, s *Server, id string) *Entry {
	t.Helper()
	e, err := s.reg.get(id)
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
		// Members hold general band entries even with TrySymmetric on.
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
