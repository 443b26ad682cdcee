package bench

import (
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/oski"
	"repro/internal/partition"
	"repro/internal/perf"
	"repro/internal/traffic"
	"repro/internal/tune"
)

// Runner generates matrices once, memoizes encodings, and evaluates
// experiment cells (matrix × machine × configuration) through the traffic
// analysis and time model.
type Runner struct {
	// Scale shrinks the suite (1.0 = paper dimensions). Smaller scales
	// keep the structure but let the whole evaluation run in seconds.
	Scale float64
	// Seed makes every run reproducible.
	Seed int64

	matrices map[string]*matrix.CSR32
	coos     map[string]*matrix.COO
}

// NewRunner returns a Runner at the given scale.
func NewRunner(scale float64, seed int64) *Runner {
	return &Runner{
		Scale:    scale,
		Seed:     seed,
		matrices: map[string]*matrix.CSR32{},
		coos:     map[string]*matrix.COO{},
	}
}

// CSR returns the memoized CSR32 form of a suite matrix.
func (r *Runner) CSR(name string) (*matrix.CSR32, error) {
	if c, ok := r.matrices[name]; ok {
		return c, nil
	}
	coo, err := r.COO(name)
	if err != nil {
		return nil, err
	}
	csr, err := matrix.NewCSR[uint32](coo)
	if err != nil {
		return nil, err
	}
	r.matrices[name] = csr
	return csr, nil
}

// COO returns the memoized coordinate form of a suite matrix.
func (r *Runner) COO(name string) (*matrix.COO, error) {
	if c, ok := r.coos[name]; ok {
		return c, nil
	}
	coo, err := gen.GenerateByName(name, r.Scale, r.Seed)
	if err != nil {
		return nil, err
	}
	r.coos[name] = coo
	return coo, nil
}

// OptLevel is a rung of the paper's optimization ladder (the Figure 1 bar
// stack).
type OptLevel int

// The optimization rungs, cumulative as in the figure.
const (
	// LevelNaive: nested-loop CSR32, no prefetch.
	LevelNaive OptLevel = iota
	// LevelPF adds software prefetching (code optimization only).
	LevelPF
	// LevelPFRB adds register blocking / index reduction / BCOO.
	LevelPFRB
	// LevelPFRBCB adds cache and TLB blocking — the full serial tuner.
	LevelPFRBCB
)

// String names the level like the figure legend.
func (l OptLevel) String() string {
	switch l {
	case LevelNaive:
		return "naive"
	case LevelPF:
		return "+PF"
	case LevelPFRB:
		return "+PF,RB"
	case LevelPFRBCB:
		return "+PF,RB,CB"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(l))
	}
}

// tuneOptions builds tuner options for one machine/config at a level.
func tuneOptions(m *machine.Machine, cfg perf.Config, level OptLevel) tune.Options {
	opt := tune.Options{}
	if level >= LevelPFRB {
		opt.RegisterBlock = true
		opt.ReduceIndices = true
		opt.AllowBCOO = true
	}
	if level >= LevelPFRBCB {
		lineBytes := m.L2.LineBytes
		if lineBytes == 0 {
			lineBytes = m.L1.LineBytes
		}
		opt.CacheBlock = true
		opt.LineBytes = lineBytes
		opt.CacheBudgetBytes = int64(perf.SourceCapacityLines(cfg)) * int64(lineBytes)
		opt.SourceShare = 0.75
		if m.TLB.L1Entries > 0 && m.Kind == machine.OutOfOrder {
			// §4.2: "In the case of the Opteron we found it beneficial to
			// block for the L1 TLB." Clovertown's L2 cache blocking covers
			// its TLB reach, so only the Opteron gets the TLB pass.
			if m.Name == "AMD X2" {
				opt.TLBBlock = true
				opt.PageBytes = m.TLB.PageBytes
				opt.TLBEntries = m.TLB.L1Entries
			}
		}
	}
	if m.Kind == machine.LocalStore {
		// The Cell implementation (§4.4): mandatory dense cache blocks
		// sized to the local store with 2-byte indices, and virtually no
		// other optimization.
		opt = tune.Options{
			ReduceIndices:    true,
			CacheBlock:       true,
			LineBytes:        m.L1.LineBytes,
			CacheBudgetBytes: m.L1.Bytes / 2,
			SourceShare:      0.75,
			// Half the local store's source share in doubles.
			FixedColumnSpan: int(m.L1.Bytes / 2 * 3 / 4 / 8),
		}
	}
	return opt
}

// perfConfig builds the model configuration for a parallel level.
func perfConfig(m *machine.Machine, coresPerSocket, sockets, threadsPerCore int, level OptLevel) perf.Config {
	return perf.Config{
		M:                  m,
		CoresPerSocketUsed: coresPerSocket,
		SocketsUsed:        sockets,
		ThreadsPerCoreUsed: threadsPerCore,
		NUMAAware:          m.NUMA && level >= LevelPFRBCB || m.Kind == machine.LocalStore && sockets > 1,
		SoftwarePrefetch:   level >= LevelPF && m.SWPrefetchToL1,
		OptimizedKernel:    level >= LevelPF,
	}
}

// Evaluate runs one experiment cell: tune the matrix for the config (each
// thread block independently), analyze traffic, and model the runtime.
func (r *Runner) Evaluate(name string, cfg perf.Config, level OptLevel) (perf.Estimate, error) {
	csr, err := r.CSR(name)
	if err != nil {
		return perf.Estimate{}, err
	}
	threads := cfg.Threads()
	topt := tuneOptions(cfg.M, cfg, level)
	tropt := perf.TrafficOptions(cfg)

	if threads <= 1 {
		enc, err := r.encodeSerial(csr, topt, level)
		if err != nil {
			return perf.Estimate{}, err
		}
		s, err := traffic.Analyze(enc, tropt)
		if err != nil {
			return perf.Estimate{}, err
		}
		return perf.Model(cfg, []traffic.Summary{s})
	}

	part, err := partition.ByNNZ(csr.RowPtr, threads)
	if err != nil {
		return perf.Estimate{}, err
	}
	partition.AssignNUMA(part, cfg.SocketsUsed)
	sums := make([]traffic.Summary, 0, threads)
	for _, rg := range part.Ranges {
		subCSR := csr.Submatrix(rg.Lo, rg.Hi, 0, csr.C)
		enc, err := r.encodeSerial(subCSR, topt, level)
		if err != nil {
			return perf.Estimate{}, err
		}
		s, err := traffic.Analyze(enc, tropt)
		if err != nil {
			return perf.Estimate{}, err
		}
		sums = append(sums, s)
	}
	return perf.Model(cfg, sums)
}

// encodeSerial encodes one thread block at the given level.
func (r *Runner) encodeSerial(csr *matrix.CSR32, topt tune.Options, level OptLevel) (matrix.Format, error) {
	if level <= LevelPF && topt.FixedColumnSpan == 0 {
		return csr, nil // naive and PF use plain CSR32
	}
	res, err := tune.Tune(csr, topt)
	if err != nil {
		return nil, err
	}
	return res.Enc, nil
}

// Median returns the median of a slice (NaN-free input assumed).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// SuiteNames returns the paper-order matrix names, excluding none.
func SuiteNames() []string {
	names := make([]string, len(gen.Suite))
	for i, s := range gen.Suite {
		names[i] = s.Name
	}
	return names
}

// OSKIBaselines computes the serial OSKI and parallel OSKI-PETSc estimates
// for one matrix on one machine.
func (r *Runner) OSKIBaselines(name string, m *machine.Machine) (serial perf.Estimate, petsc *oski.PETScEstimate, err error) {
	csr, err := r.CSR(name)
	if err != nil {
		return perf.Estimate{}, nil, err
	}
	serial, _, err = oski.SerialEstimate(csr, m)
	if err != nil {
		return perf.Estimate{}, nil, err
	}
	petsc, err = oski.BestPETSc(csr, m)
	return serial, petsc, err
}
