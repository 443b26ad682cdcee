package sim

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/traffic"
	"repro/internal/tune"
)

func fillRandom(m *matrix.COO, rng *rand.Rand, n int) *matrix.COO {
	type pos struct{ r, c int32 }
	seen := make(map[pos]bool, n)
	for len(m.Val) < n {
		r := int32(rng.Intn(m.R))
		c := int32(rng.Intn(m.C))
		if seen[pos{r, c}] {
			continue
		}
		seen[pos{r, c}] = true
		m.RowIdx = append(m.RowIdx, r)
		m.ColIdx = append(m.ColIdx, c)
		m.Val = append(m.Val, rng.NormFloat64())
	}
	return m
}

func TestHierarchyConstruction(t *testing.T) {
	for _, m := range machine.All() {
		h, err := NewHierarchy(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if m.Kind == machine.LocalStore {
			if h.L1 != nil || h.L2 != nil {
				t.Errorf("%s: local-store machine got caches", m.Name)
			}
		} else {
			if h.L1 == nil || h.L2 == nil {
				t.Errorf("%s: missing cache levels", m.Name)
			}
		}
	}
}

func TestRunCSRProducesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := fillRandom(matrix.NewCOO(500, 500), rng, 5000)
	csr, _ := matrix.NewCSR[uint32](m)
	h, err := NewHierarchy(machine.AMDX2())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(h, csr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses == 0 || res.DRAMBytes == 0 {
		t.Fatalf("empty result %+v", res)
	}
	// Lower bound: the structure is streamed once; DRAM traffic must be at
	// least the footprint (rounded down by line sharing at array borders).
	if res.DRAMBytes < csr.FootprintBytes()/2 {
		t.Errorf("DRAM bytes %d below half the footprint %d", res.DRAMBytes, csr.FootprintBytes())
	}
	// Upper bound: every access missing every time.
	if res.DRAMBytes > res.Accesses*64*2 {
		t.Errorf("DRAM bytes %d impossibly high", res.DRAMBytes)
	}
}

// TestSimulatorVsWindowModel cross-validates the analytic traffic model
// against the exact cache simulation: on matrices whose source vector fits
// the cache (compulsory-only) the two must agree within line-granularity
// effects, and on thrashing matrices both must detect the blowup.
func TestSimulatorVsWindowModel(t *testing.T) {
	am := machine.AMDX2()

	run := func(m *matrix.COO) (simBytes int64, modelBytes int64) {
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHierarchy(am)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(h, csr)
		if err != nil {
			t.Fatal(err)
		}
		// Model with the same effective capacity: the whole L2 (the sim
		// has no competing threads), halved for the streams as in perf.
		s, err := traffic.Analyze(csr, traffic.Options{
			LineBytes:           64,
			SourceCapacityLines: int(am.L2.Bytes / 64 / 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.DRAMBytes, s.TotalBytes()
	}

	// Case 1: dense-ish small matrix, everything fits: agreement within 2x
	// (the sim counts extra row-pointer and alignment lines).
	rng := rand.New(rand.NewSource(2))
	small := fillRandom(matrix.NewCOO(400, 400), rng, 8000)
	simB, modB := run(small)
	if ratio := float64(simB) / float64(modB); ratio < 0.5 || ratio > 2.0 {
		t.Errorf("fitting case: sim %d vs model %d bytes (ratio %.2f)", simB, modB, ratio)
	}

	// Case 2: wide scatter far beyond the L2: both must report source
	// traffic far above compulsory. Compare against the unbounded
	// (compulsory) model to detect the blowup in both.
	wide := fillRandom(matrix.NewCOO(300, 1<<20), rng, 60000)
	csrWide, _ := matrix.NewCSR[uint32](wide)
	comp, err := traffic.Analyze(csrWide, traffic.Options{LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	simW, modW := run(wide)
	if float64(simW) < 1.1*float64(comp.TotalBytes()) {
		t.Errorf("simulator missed thrashing: %d vs compulsory %d", simW, comp.TotalBytes())
	}
	if float64(modW) < 1.1*float64(comp.TotalBytes()) {
		t.Errorf("window model missed thrashing: %d vs compulsory %d", modW, comp.TotalBytes())
	}
	if ratio := float64(simW) / float64(modW); ratio < 0.4 || ratio > 2.5 {
		t.Errorf("thrashing case: sim %d vs model %d bytes (ratio %.2f)", simW, modW, ratio)
	}
}

// TestCacheBlockingReducesSimulatedTraffic is the end-to-end validation of
// the tuner's cache blocking against the exact simulator: for an LP-like
// matrix whose source vector exceeds the L2, the tuned (cache-blocked)
// encoding must move fewer DRAM bytes than plain CSR.
func TestCacheBlockingReducesSimulatedTraffic(t *testing.T) {
	m, err := gen.GenerateByName("LP", 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := matrix.NewCSR[uint32](m)
	if err != nil {
		t.Fatal(err)
	}
	am := machine.AMDX2()

	hPlain, err := NewHierarchy(am)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(hPlain, csr)
	if err != nil {
		t.Fatal(err)
	}

	res, err := tune.NewPlan(csr, tune.Options{
		RegisterBlock: true, ReduceIndices: true, AllowBCOO: true,
		CacheBlock: true, CacheBudgetBytes: am.L2.Bytes / 2, LineBytes: 64,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := res.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	hTuned, err := NewHierarchy(am)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Run(hTuned, parts[0].Enc)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.DRAMBytes >= plain.DRAMBytes {
		t.Errorf("cache blocking did not reduce simulated traffic: %d vs %d",
			tuned.DRAMBytes, plain.DRAMBytes)
	}
	t.Logf("LP DRAM bytes: plain %d, tuned %d (%.2fx reduction)",
		plain.DRAMBytes, tuned.DRAMBytes, float64(plain.DRAMBytes)/float64(tuned.DRAMBytes))
}

// TestTLBBlockingReducesPageMisses validates the §4.2 TLB heuristic with
// the page-level simulator.
func TestTLBBlockingReducesPageMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Wide scatter across many pages with a tiny TLB.
	m := fillRandom(matrix.NewCOO(256, 1<<16), rng, 20000)
	csr, _ := matrix.NewCSR[uint32](m)
	am := machine.AMDX2() // 32-entry L1 TLB, 4KB pages

	hPlain, err := NewHierarchy(am)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(hPlain, csr)
	if err != nil {
		t.Fatal(err)
	}

	res, err := tune.NewPlan(csr, tune.Options{
		TLBBlock: true, PageBytes: am.TLB.PageBytes, TLBEntries: am.TLB.L1Entries,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := res.Encode(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) < 2 {
		t.Fatalf("TLB blocking produced no splits")
	}
	hTuned, err := NewHierarchy(am)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Run(hTuned, parts[0].Enc)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.TLB.Misses >= plain.TLB.Misses {
		t.Errorf("TLB blocking did not reduce page misses: %d vs %d",
			tuned.TLB.Misses, plain.TLB.Misses)
	}
	t.Logf("TLB misses: plain %d, blocked %d", plain.TLB.Misses, tuned.TLB.Misses)
}

// TestBlockedFormatsReplay ensures every format replays without error and
// produces monotone-sensible traffic.
func TestBlockedFormatsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := fillRandom(matrix.NewCOO(128, 128), rng, 1500)
	csr, _ := matrix.NewCSR[uint32](m)
	encs := []matrix.Format{csr, m}
	csr16coo := csr.ToCOO()
	csr16, err := matrix.NewCSR[uint16](csr16coo)
	if err != nil {
		t.Fatal(err)
	}
	encs = append(encs, csr16)
	for _, shape := range []matrix.BlockShape{{R: 2, C: 2}, {R: 4, C: 4}, {R: 1, C: 4}} {
		b, err := matrix.NewBCSR[uint16](csr, shape)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := matrix.NewBCOO[uint16](csr, shape)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, b, bc)
	}
	for _, enc := range encs {
		h, err := NewHierarchy(machine.Clovertown())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(h, enc)
		if err != nil {
			t.Fatalf("%s: %v", enc.FormatName(), err)
		}
		if res.Accesses == 0 {
			t.Errorf("%s: no accesses", enc.FormatName())
		}
		if res.L1.Hits+res.L1.Misses != res.L1.Accesses {
			t.Errorf("%s: L1 bookkeeping broken: %+v", enc.FormatName(), res.L1)
		}
	}
}

// TestSixteenBitIndicesReduceSimulatedTraffic: the index-compression
// optimization measured end to end.
func TestSixteenBitIndicesReduceSimulatedTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := fillRandom(matrix.NewCOO(2048, 2048), rng, 60000)
	csr, _ := matrix.NewCSR[uint32](m)
	b32, err := matrix.NewBCSR[uint32](csr, matrix.BlockShape{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	b16, err := matrix.NewBCSR[uint16](csr, matrix.BlockShape{R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(enc matrix.Format) int64 {
		h, err := NewHierarchy(machine.AMDX2())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(h, enc)
		if err != nil {
			t.Fatal(err)
		}
		return res.DRAMBytes
	}
	t32, t16 := run(b32), run(b16)
	if t16 >= t32 {
		t.Errorf("16-bit indices did not reduce traffic: %d vs %d", t16, t32)
	}
}
