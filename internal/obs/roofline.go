package obs

import (
	"sync/atomic"
	"time"
)

// Roofline joins measured sweep wall time with the traffic model's byte
// counts — the paper's thesis made observable: if SpMV is truly
// bandwidth-bound, modeled bytes over measured seconds should approach
// the machine's sustained DRAM bandwidth. Each serving snapshot carries
// its own accumulator, so attribution is naturally per matrix, per
// kernel, and per serving generation: a recompaction starts a fresh
// accumulator and its achieved GB/s can be compared against the
// replaced generation's.
type Roofline struct {
	sweeps atomic.Uint64
	nanos  atomic.Int64 // measured sweep wall time
	bytes  atomic.Int64 // modeled DRAM bytes those sweeps moved
}

// Record accounts one executed sweep: its measured wall time and the
// modeled bytes it streamed.
func (r *Roofline) Record(d time.Duration, modeledBytes int64) {
	if r == nil {
		return
	}
	r.sweeps.Add(1)
	if d > 0 {
		r.nanos.Add(int64(d))
	}
	r.bytes.Add(modeledBytes)
}

// RooflineStats is the JSON shape of one accumulator: measured wall
// time, modeled bytes, and the achieved effective bandwidth they imply.
// ModelRatio is achieved bandwidth over the configured sustained-DRAM
// reference — ~1.0 means the serving path runs at the modeled roofline,
// well below means overhead (or a wrong model) is eating the bound.
type RooflineStats struct {
	Sweeps       uint64  `json:"sweeps"`
	SweepSeconds float64 `json:"sweep_seconds"`
	ModeledBytes int64   `json:"modeled_bytes"`
	AchievedGBs  float64 `json:"achieved_gbs"`
	ModelRatio   float64 `json:"model_ratio"`
}

// Stats summarizes the accumulator against a reference sustained
// bandwidth in GB/s (<= 0 omits the ratio).
func (r *Roofline) Stats(referenceGBs float64) RooflineStats {
	if r == nil {
		return RooflineStats{}
	}
	s := RooflineStats{
		Sweeps:       r.sweeps.Load(),
		SweepSeconds: float64(r.nanos.Load()) / 1e9,
		ModeledBytes: r.bytes.Load(),
	}
	if s.SweepSeconds > 0 {
		s.AchievedGBs = float64(s.ModeledBytes) / 1e9 / s.SweepSeconds
	}
	if referenceGBs > 0 {
		s.ModelRatio = s.AchievedGBs / referenceGBs
	}
	return s
}
