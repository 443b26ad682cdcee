package spmv_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	spmv "repro"
)

// libraryPin is what one library compile must reproduce: the kernel it
// runs, the footprint of its encoding, how many per-block decisions made
// it, and the bits of y = A·x for a seeded x.
type libraryPin struct {
	suite     string
	tuned     bool // DefaultTuneOptions, else NaiveOptions
	threads   int
	kernel    string
	footprint int64
	decisions int
	yHash     uint64
}

// libraryPins hold every suite twin at scale 0.1, generator seed 5, under
// the naive and the default tuner, serial and three threads: whole-matrix,
// cache-blocked, BCSR, BCOO and parallel encodings alike. The literals
// depend on what the set-up path builds, never on how it builds it.
var libraryPins = []libraryPin{
	{"Dense", false, 1, "csr32/singleloop", 481608, 1, 0xa7dd2139ee88b10f},
	{"Dense", false, 3, "parallel[3]", 481624, 3, 0xa7dd2139ee88b10f},
	{"Dense", true, 1, "bcsr4x4/16", 325408, 1, 0xa7dd2139ee88b10f},
	{"Dense", true, 3, "parallel[3]", 330460, 3, 0xa7dd2139ee88b10f},
	{"Protein", false, 1, "csr32/singleloop", 5212808, 1, 0xb1851980b3234006},
	{"Protein", false, 3, "parallel[3]", 5212824, 3, 0xb1851980b3234006},
	{"Protein", true, 1, "bcsr2x2/16", 3686408, 1, 0xb1851980b3234006},
	{"Protein", true, 3, "parallel[3]", 3686424, 3, 0xb1851980b3234006},
	{"FEM/Spheres", false, 1, "csr32/singleloop", 7234344, 1, 0x4ebbdfdf961cdd48},
	{"FEM/Spheres", false, 3, "parallel[3]", 7234360, 3, 0x4ebbdfdf961cdd48},
	{"FEM/Spheres", true, 1, "bcsr2x2/16", 5110496, 1, 0x4ebbdfdf961cdd48},
	{"FEM/Spheres", true, 3, "parallel[3]", 5420848, 3, 0x4ebbdfdf961cdd48},
	{"FEM/Cantilever", false, 1, "csr32/singleloop", 4811208, 1, 0x9adffa71f31cf07},
	{"FEM/Cantilever", false, 3, "parallel[3]", 4811224, 3, 0x9adffa71f31cf07},
	{"FEM/Cantilever", true, 1, "bcsr4x4/16", 3236408, 1, 0x9adffa71f31cf07},
	{"FEM/Cantilever", true, 3, "parallel[3]", 3518048, 3, 0x9adffa71f31cf07},
	{"Wind Tunnel", false, 1, "csr32/singleloop", 14298984, 1, 0xfde5fa9787aabee8},
	{"Wind Tunnel", false, 3, "parallel[3]", 14299000, 3, 0xfde5fa9787aabee8},
	{"Wind Tunnel", true, 1, "bcsr2x2/16", 10092116, 1, 0xfde5fa9787aabee8},
	{"Wind Tunnel", true, 3, "parallel[3]", 10092132, 3, 0xfde5fa9787aabee8},
	{"FEM/Harbor", false, 1, "csr32/singleloop", 2913552, 1, 0x9b2bcc5f63397234},
	{"FEM/Harbor", false, 3, "parallel[3]", 2913568, 3, 0x9b2bcc5f63397234},
	{"FEM/Harbor", true, 1, "csr16/singleloop", 2434228, 1, 0x9b2bcc5f63397234},
	{"FEM/Harbor", true, 3, "parallel[3]", 2434244, 3, 0x9b2bcc5f63397234},
	{"QCD", false, 1, "csr32/singleloop", 2331520, 1, 0xbea00e361f159002},
	{"QCD", false, 3, "parallel[3]", 2331536, 3, 0xbea00e361f159002},
	{"QCD", true, 1, "csr16/singleloop", 1949468, 1, 0xbea00e361f159002},
	{"QCD", true, 3, "parallel[3]", 1949484, 3, 0xbea00e361f159002},
	{"FEM/Ship", false, 1, "csr32/singleloop", 5188808, 1, 0xdc270f3d1a149a8b},
	{"FEM/Ship", false, 3, "parallel[3]", 5188824, 3, 0xdc270f3d1a149a8b},
	{"FEM/Ship", true, 1, "bcsr2x2/16", 3651908, 1, 0xdc270f3d1a149a8b},
	{"FEM/Ship", true, 3, "parallel[3]", 3651924, 3, 0xdc270f3d1a149a8b},
	{"Economics", false, 1, "csr32/singleloop", 1681016, 1, 0x4692c84e7c64f992},
	{"Economics", false, 3, "parallel[3]", 1681032, 3, 0x4692c84e7c64f992},
	{"Economics", true, 1, "csr16/singleloop", 1428448, 1, 0x4692c84e7c64f992},
	{"Economics", true, 3, "parallel[3]", 1428464, 3, 0x4692c84e7c64f992},
	{"Epidemiology", false, 1, "csr32/singleloop", 2929792, 1, 0xc41f040cba641f50},
	{"Epidemiology", false, 3, "parallel[3]", 2929808, 3, 0xc41f040cba641f50},
	{"Epidemiology", true, 1, "bcoo1x1/16", 2510256, 1, 0xc41f040cba641f50},
	{"Epidemiology", true, 3, "parallel[3]", 2510178, 3, 0xc41f040cba641f50},
	{"FEM/Accelerator", false, 1, "csr32/singleloop", 3245512, 1, 0x70a72977254ece41},
	{"FEM/Accelerator", false, 3, "parallel[3]", 3245528, 3, 0x70a72977254ece41},
	{"FEM/Accelerator", true, 1, "csr16/singleloop", 2720728, 1, 0x70a72977254ece41},
	{"FEM/Accelerator", true, 3, "parallel[3]", 2720744, 3, 0x70a72977254ece41},
	{"Circuit", false, 1, "csr32/singleloop", 1047284, 1, 0x310b2245a9dfd835},
	{"Circuit", false, 3, "parallel[3]", 1047300, 3, 0x310b2245a9dfd835},
	{"Circuit", true, 1, "csr16/singleloop", 895538, 1, 0x310b2245a9dfd835},
	{"Circuit", true, 3, "parallel[3]", 895554, 3, 0x310b2245a9dfd835},
	{"webbase", false, 1, "csr32/singleloop", 4170664, 1, 0xad63fea20f6dfd3f},
	{"webbase", false, 3, "parallel[3]", 4170680, 3, 0xad63fea20f6dfd3f},
	{"webbase", true, 1, "cacheblocked[28]", 3371552, 28, 0xad63fea20f6dfd3f},
	{"webbase", true, 3, "parallel[3]", 3372000, 42, 0xad63fea20f6dfd3f},
	{"LP", false, 1, "csr32/singleloop", 14326284, 1, 0xde67c4452ec2a8a8},
	{"LP", false, 3, "parallel[3]", 14326300, 3, 0xde67c4452ec2a8a8},
	{"LP", true, 1, "csr32/singleloop", 14326284, 1, 0xde67c4452ec2a8a8},
	{"LP", true, 3, "parallel[3]", 14326300, 3, 0xde67c4452ec2a8a8},
}

// pinHash is the FNV-64a hash of y's bits, little-endian.
func pinHash(y []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range y {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestLibraryDecisionPins compiles every suite twin the four ways the
// library's callers do and checks each against its pin: a change to
// which encoding the tuner picks, to how an encoding is laid out or to
// the bits its sweep returns shows here.
func TestLibraryDecisionPins(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 14 suite twins four ways")
	}
	want := map[libraryPin]libraryPin{}
	for _, p := range libraryPins {
		want[libraryPin{suite: p.suite, tuned: p.tuned, threads: p.threads}] = p
	}
	var rows int
	for _, name := range spmv.SuiteNames() {
		m, err := spmv.GenerateSuite(name, 0.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, cols := m.Dims()
		rng := rand.New(rand.NewSource(11))
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for _, tuned := range []bool{false, true} {
			opt := spmv.NaiveOptions()
			if tuned {
				opt = spmv.DefaultTuneOptions()
			}
			for _, threads := range []int{1, 3} {
				op, err := spmv.CompileParallel(m, opt, threads, 1)
				if err != nil {
					t.Fatal(err)
				}
				y, err := op.Mul(x)
				if err != nil {
					t.Fatal(err)
				}
				got := libraryPin{
					suite: name, tuned: tuned, threads: threads,
					kernel: op.KernelName(), footprint: op.FootprintBytes(),
					decisions: len(op.Decisions()), yHash: pinHash(y),
				}
				rows++
				key := libraryPin{suite: name, tuned: tuned, threads: threads}
				if p, ok := want[key]; !ok || got != p {
					t.Errorf("got  {%q, %v, %d, %q, %d, %d, %#x}\npinned %+v",
						got.suite, got.tuned, got.threads, got.kernel,
						got.footprint, got.decisions, got.yHash, p)
				}
			}
		}
	}
	if rows != len(libraryPins) {
		t.Errorf("compiled %d cases, %d pinned", rows, len(libraryPins))
	}
}
