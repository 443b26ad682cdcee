// Online workload-aware re-tuning. Williams et al. show the best SpMV
// format/blocking choice depends on the workload as well as the matrix —
// the reason OSKI-style systems keep re-tuning as usage evolves. The
// serving layer compiles each matrix once at registration with a width-1
// guess; the re-tuner closes the loop:
//
//  1. Observe: every executed sweep records its fused width in the
//     entry's workload tracker (fused-width histogram + a ring of recent
//     sweep shapes).
//  2. Detect drift: a background scanner compares the request-weighted
//     median width against the width the serving operator was tuned for;
//     past Config.RetuneDrift (and RetuneMinRequests of fresh signal) the
//     entry is re-evaluated.
//  3. Re-tune off the hot path: the scanner's goroutine re-runs the §4.2
//     tuner over the serving candidate set (servingTune) for the observed
//     width — VectorWidth from the histogram median, index narrowing open.
//  4. Shadow benchmark: the candidate is scored on the captured sample
//     of real request shapes with the traffic model — modeled DRAM bytes
//     per request, the same currency as the paper's §5.1 bound — against
//     the incumbent's serving traffic.
//  5. Promote atomically: a winning candidate replaces the entry's
//     serving snapshot copy-on-write; in-flight sweeps drain on the old
//     operator while new batches load the new one. Decisions (promotions
//     and rejections) land in a bounded per-entry event log exposed at
//     GET /v1/matrices/{id}/tuning and in the /v1/stats counters.
//
// Determinism: the candidate set holds only encodings whose sweeps
// reproduce the incumbent's bits at every width — today the CSR family
// (row-partitioned, either index width), all of it one loop nest — so a
// promotion shrinks the fused matrix stream (16-bit indices) without
// changing a single response bit. A storage-family switch (general ↔
// symmetric) changes the summation order, so the re-tuner never proposes
// one; the family is chosen at registration and re-judged only by
// recompaction when deltas break symmetry.
package server

import (
	"fmt"
	"time"

	spmv "repro"
	"repro/internal/obs"
)

// retunePromoteMargin is the minimum modeled bytes-per-request improvement
// a candidate must show before it replaces the incumbent: promotion churn
// has a cost (a compiled encoding, a warm-up), so ties go to the sitter.
const retunePromoteMargin = 0.02

// maxTuningEvents bounds each entry's decision log.
const maxTuningEvents = 32

// TuningEvent is one re-tune decision for a matrix.
type TuningEvent struct {
	Time     time.Time `json:"time"`
	Decision string    `json:"decision"` // "promoted" or "rejected"
	Reason   string    `json:"reason,omitempty"`
	// ObservedWidth is the request-weighted median fused width that
	// triggered the evaluation; Drift its distance from the tuned width.
	ObservedWidth int     `json:"observed_width"`
	Drift         float64 `json:"drift"`
	// Modeled DRAM bytes per request on the captured request sample —
	// the shadow benchmark's scores.
	IncumbentBytesPerRequest float64 `json:"incumbent_bytes_per_request"`
	CandidateBytesPerRequest float64 `json:"candidate_bytes_per_request"`
	// Kernel names the candidate's compiled kernel; Generation is the
	// serving generation after the decision (unchanged on rejection).
	Kernel     string `json:"kernel"`
	Generation int    `json:"generation"`
}

// TuningReport is GET /v1/matrices/{id}/tuning: the live tuner state of
// one registered matrix.
type TuningReport struct {
	ID         string `json:"id"`
	Generation int    `json:"generation"`
	Kernel     string `json:"kernel"`
	Symmetric  bool   `json:"symmetric"`
	// Wide reports that sweeps stream the general operator's own encoding
	// through the wide kernels: every general matrix, so !Symmetric.
	Wide       bool `json:"wide"`
	TunedWidth int  `json:"tuned_width"`
	// Observed workload since registration.
	ObservedMedianWidth int     `json:"observed_median_width"`
	ObservedRequests    uint64  `json:"observed_requests"`
	ObservedSweeps      uint64  `json:"observed_sweeps"`
	Drift               float64 `json:"drift"`
	// MatrixBytes is the modeled per-sweep matrix stream as served.
	MatrixBytes int64         `json:"matrix_bytes"`
	Events      []TuningEvent `json:"events,omitempty"`

	// Measured is the roofline attribution of the current serving
	// generation: measured sweep wall time joined with the traffic model's
	// bytes into achieved GB/s and a ratio against RooflineGBs, the
	// configured sustained-bandwidth reference. It resets on promotion —
	// each generation's bandwidth is measured on its own sweeps.
	Measured    *obs.RooflineStats `json:"measured,omitempty"`
	RooflineGBs float64            `json:"roofline_gbs,omitempty"`
}

// Tuning returns the re-tuner's view of one registered matrix.
func (s *Server) Tuning(id string) (TuningReport, error) {
	e, err := s.reg.Get(id)
	if err != nil {
		return TuningReport{}, err
	}
	rep := TuningReport{
		ID:                  e.ID,
		ObservedMedianWidth: e.work.medianWidth(),
		ObservedRequests:    e.work.requests.Load(),
		ObservedSweeps:      e.work.sweeps.Load(),
	}
	if sv := e.cur.Load(); sv != nil {
		rep.Generation = sv.gen
		rep.Kernel = sv.op.KernelName()
		rep.Symmetric = sv.sym
		rep.Wide = !sv.sym
		rep.TunedWidth = sv.width
		rep.MatrixBytes = sv.matrixBytes
		rep.Drift = widthDrift(sv.width, rep.ObservedMedianWidth)
		measured := sv.roof.Stats(s.cfg.RooflineGBs)
		rep.Measured = &measured
		rep.RooflineGBs = s.cfg.RooflineGBs
	}
	e.tuneMu.Lock()
	rep.Events = append([]TuningEvent(nil), e.events...)
	e.tuneMu.Unlock()
	return rep, nil
}

// retuneLoop is the background scanner started by New when
// Config.RetuneInterval > 0.
func (s *Server) retuneLoop() {
	defer close(s.retuneDone)
	ticker := time.NewTicker(s.cfg.RetuneInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.retuneStop:
			return
		case <-ticker.C:
			s.RetuneOnce()
		}
	}
}

// RetuneOnce synchronously evaluates every registered matrix for workload
// drift and promotes winning candidates, returning the number of
// promotions. It is what each background scan runs; tests and demos call
// it directly to re-tune without waiting out the interval.
func (s *Server) RetuneOnce() int {
	promoted := 0
	for _, e := range s.reg.List() {
		if s.evaluateEntry(e) {
			promoted++
		}
	}
	return promoted
}

// evaluateEntry runs steps 2-5 for one entry, reporting whether a
// promotion happened. Evaluations of the same entry are serialized by
// tuneMu — the snapshot is loaded under it, so concurrent RetuneOnce
// calls and the background scanner always evaluate (and replace) the
// current generation, never a stale one. The serving hot path is never
// blocked (it only loads e.cur).
func (s *Server) evaluateEntry(e *Entry) bool {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	sv := e.cur.Load()
	if sv == nil {
		return false
	}
	req := e.work.requests.Load()
	if req-e.lastEvalRequests < uint64(s.cfg.RetuneMinRequests) {
		return false
	}
	med := e.work.medianWidth()
	drift := widthDrift(sv.width, med)
	if drift < s.cfg.RetuneDrift {
		return false
	}
	if med == e.lastRejectedWidth {
		// A steadily drifted workload whose candidate already lost would
		// otherwise recompile and re-reject the identical candidate on
		// every pacing quantum; wait for the median itself to move.
		return false
	}
	s.st.retuneEvals.Add(1)
	// Either way this evaluation resolves, wait for fresh signal before
	// the next one: without this, a rejected candidate would be rebuilt
	// and re-rejected on every scan of a steadily drifted workload.
	e.lastEvalRequests = req

	sample := e.work.sample()
	if len(sample) == 0 {
		sample = []int{med}
	}
	incumbentScore := sv.summary().BlendedPerRequest(sample)
	cand := s.buildCandidate(e, sv, med)
	var candScore float64
	if cand != nil {
		candScore = cand.summary().BlendedPerRequest(sample)
	}
	ev := TuningEvent{
		Time: time.Now(), ObservedWidth: med, Drift: drift,
		IncumbentBytesPerRequest: incumbentScore,
		Generation:               sv.gen,
	}
	switch {
	case cand == nil:
		ev.Decision = "rejected"
		ev.Reason = "no viable candidate encoding"
		ev.Kernel = sv.op.KernelName()
	case candScore < incumbentScore*(1-retunePromoteMargin):
		e.cur.Store(cand)
		ev.Decision = "promoted"
		ev.Kernel = cand.op.KernelName()
		ev.CandidateBytesPerRequest = candScore
		ev.Generation = cand.gen
	default:
		ev.Decision = "rejected"
		ev.Reason = fmt.Sprintf("modeled improvement below the %.0f%% promotion margin", 100*retunePromoteMargin)
		ev.Kernel = cand.op.KernelName()
		ev.CandidateBytesPerRequest = candScore
	}
	e.events = append(e.events, ev)
	if len(e.events) > maxTuningEvents {
		e.events = e.events[len(e.events)-maxTuningEvents:]
	}
	if ev.Decision == "promoted" {
		e.lastRejectedWidth = 0
		s.st.retunePromotions.Add(1)
		return true
	}
	e.lastRejectedWidth = med
	s.st.retuneRejections.Add(1)
	return false
}

// buildCandidate compiles the workload-derived contender for an entry as
// the snapshot it would be promoted as — generation+1, tuned for the
// observed width, modeled by the traffic it would actually stream — or nil
// when there is none: a symmetric-served matrix has no candidate inside its
// family, and a failed compile is no candidate. A contender that is not
// promoted is dropped with its matrix-sized encoding; lastRejectedWidth
// keeps an unchanged median from recompiling it. The overlay rides along:
// a re-tune changes how the BASE is served, not the pending deltas, and
// dropping them would silently revert the matrix (recompaction, not
// promotion, is what retires an overlay).
func (s *Server) buildCandidate(e *Entry, sv *serving, width int) *serving {
	if sv.sym {
		return nil
	}
	op, err := spmv.CompileParallel(e.m, s.servingTune(width, true), s.cfg.Threads, 1)
	if err != nil {
		return nil
	}
	s.st.compiles.Add(1)
	nsv, err := newServing(op, sv.gen+1, width, sv.ov)
	if err != nil {
		return nil
	}
	return nsv
}
