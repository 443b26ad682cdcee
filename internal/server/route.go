// Load-aware routing policies for the shard coordinator. The paper's
// thesis is that SpMV throughput is delivered memory bandwidth, so a
// sharded fleet only scales when every member streams bytes at its
// sustained rate: a router that keeps sending requests to a member whose
// queue (in modeled bytes) is already deep — or whose tail latency says
// it is slow — wastes the fast members' bandwidth on waiting. The
// policies here rank a band's replicas before each sub-request:
//
//   - round-robin: the legacy rotation, blind to load (the baseline the
//     skewed fleet of examples/loadgen -mode shard measures against);
//   - least-loaded: ascending in-flight modeled sweep bytes, charged at
//     dispatch and released at completion;
//   - weighted: a blended score of queue depth, recent p99, and the
//     member's windowed failure rate (see memberScore);
//   - affinity: rendezvous hashing on a caller-supplied key (solver
//     sessions use their session id), so an iterative solve hits the
//     same member's warm caches every iteration while distinct sessions
//     still spread across replicas.
//
// Ejection is no longer a dead-end: an ejected member's circuit is
// "open" for a backoff (exponential, capped), then "half-open" — one
// live request at a time is allowed through as a probe, success restores
// the member to rotation, failure doubles the backoff. A band whose
// replicas are all ejected degrades to probing the least-recently-failed
// member instead of failing the request outright.
package server

import (
	"fmt"
	"sort"
	"time"
)

// RoutePolicy names a replica-selection policy for ClusterConfig.Policy
// and the -route-policy flag.
type RoutePolicy string

const (
	// RouteRoundRobin rotates blindly over a band's live replicas (the
	// default, and the pre-policy behavior).
	RouteRoundRobin RoutePolicy = "round-robin"
	// RouteLeastLoaded picks the replica with the fewest in-flight
	// modeled sweep bytes.
	RouteLeastLoaded RoutePolicy = "least-loaded"
	// RouteWeighted ranks replicas by memberScore: queue depth blended
	// with recent p99 and the windowed failure rate.
	RouteWeighted RoutePolicy = "weighted"
	// RouteAffinity pins a request's affinity key to one replica by
	// rendezvous hashing (least-loaded when the request carries no key).
	RouteAffinity RoutePolicy = "affinity"
)

// ParseRoutePolicy maps a flag/config string to its RoutePolicy; the
// empty string means round-robin.
func ParseRoutePolicy(s string) (RoutePolicy, error) {
	switch RoutePolicy(s) {
	case "", RouteRoundRobin:
		return RouteRoundRobin, nil
	case RouteLeastLoaded:
		return RouteLeastLoaded, nil
	case RouteWeighted:
		return RouteWeighted, nil
	case RouteAffinity:
		return RouteAffinity, nil
	}
	return "", fmt.Errorf("server: unknown route policy %q (want round-robin, least-loaded, weighted, or affinity)", s)
}

// Half-open recovery: the base probe backoff applied at ejection when
// ClusterConfig.ProbeInterval is unset, and the cap the exponential
// doubling saturates at.
const (
	DefaultProbeInterval = time.Second
	probeMaxBackoff      = 30 * time.Second
)

// failWindowSize is the approximate sliding-window length of the
// per-member failure rate: once total outcomes reach it, both counters
// are halved, so old outcomes decay geometrically instead of a one-bad
// -minute haunting the member forever.
const failWindowSize = 128

// p99RefreshEvery is how many recorded latencies pass between refreshes
// of the member's cached p99 (the weighted scorer reads the cache; a
// full histogram walk per routing decision would be the observability
// layer perturbing the hot path).
const p99RefreshEvery = 32

// weightedFailPenalty converts the windowed failure rate into score
// units: a member failing half its requests scores as two extra queued
// requests — enough to prefer a clean replica, not enough to starve a
// merely unlucky one (full starvation is ejection's job).
const weightedFailPenalty = 4.0

// observeOutcome feeds one sub-request outcome into the member's decayed
// failure window. The halving CAS is approximate under races — the rate
// is a routing hint, not a ledger.
func (m *Member) observeOutcome(ok bool) {
	if !ok {
		m.winFail.Add(1)
	}
	if t := m.winTotal.Add(1); t >= failWindowSize {
		if m.winTotal.CompareAndSwap(t, t/2) {
			m.winFail.Store(m.winFail.Load() / 2)
		}
	}
}

// failRate returns the member's windowed failure rate in [0, 1].
//
//spmv:hotpath
func (m *Member) failRate() float64 {
	t := m.winTotal.Load()
	if t <= 0 {
		return 0
	}
	r := float64(m.winFail.Load()) / float64(t)
	if r > 1 {
		return 1
	}
	return r
}

// noteLatency records one successful sub-request's coordinator-observed
// latency and periodically refreshes the cached p99 the scorer reads.
func (m *Member) noteLatency(d time.Duration) {
	m.lat.Record(d)
	if m.latN.Add(1)%p99RefreshEvery == 0 {
		s := m.lat.Snapshot()
		m.p99ns.Store(int64(s.Quantile(0.99)))
	}
}

// memberScore is the weighted-scoring policy's ranking function; lower
// is better. The score blends three unitless penalties:
//
//	score(m) = inflight(m)/sweepBytes        (queue depth, in requests)
//	         + p99(m)/minP99 − 1             (relative tail latency)
//	         + 4·failRate(m)                 (windowed failure penalty)
//
// minP99 is the smallest cached p99 among the band's live replicas, so
// the latency term measures how much slower this member is than the
// best — a fleet that is uniformly slow scores evenly. Members with no
// latency samples yet contribute no latency term.
//
//spmv:hotpath
func memberScore(m *Member, sweepBytes, minP99 int64) float64 {
	score := float64(m.inflight.Load()) / float64(max(sweepBytes, 1))
	if p := m.p99ns.Load(); p > 0 && minP99 > 0 {
		score += float64(p)/float64(minP99) - 1
	}
	return score + weightedFailPenalty*m.failRate()
}

// affinityScore is the rendezvous (highest-random-weight) hash binding
// an affinity key to a member: FNV-1a over key, a separator, and the
// member name. Every router computes the same winner without shared
// state, and losing a member only remaps the keys it owned.
func affinityScore(key, member string) uint64 {
	const offset, prime = uint64(14695981039346656037), uint64(1099511628211)
	h := offset
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(member); i++ {
		h = (h ^ uint64(member[i])) * prime
	}
	return h
}

// gatherBand copies one band's result into its disjoint rows y of the
// gathered vector, reporting whether the row count matched. It is the only
// routing-layer code that touches response numerics: a straight copy, so
// K-sharded bits equal single-node bits whatever the policy or probe.
//
//spmv:deterministic
func gatherBand(y, yb []float64) bool {
	if len(yb) == len(y) {
		copy(y, yb)
	}
	return len(yb) == len(y)
}

// rankReplicas returns the band's replicas in routing-preference order:
// ejected members whose half-open probe window is open lead
// (least-recently-failed first — they must be tried or they never
// recover while a healthy peer keeps succeeding; a failed probe falls
// through to the live replicas, so the request only pays latency), then
// the live members ranked by the configured policy. An empty result
// means every replica is ejected with its window still closed; the
// caller degrades to a forced probe.
func (c *Cluster) rankReplicas(b *band, affinity string, now time.Time) []*Member {
	out := make([]*Member, 0, len(b.replicas))
	for _, m := range b.replicas {
		if !m.ejected.Load() {
			out = append(out, m)
		}
	}
	switch c.cfg.Policy {
	case RouteLeastLoaded:
		sortByLoad(out)
	case RouteWeighted:
		minP99 := int64(0)
		for _, m := range out {
			if p := m.p99ns.Load(); p > 0 && (minP99 == 0 || p < minP99) {
				minP99 = p
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			return memberScore(out[i], b.sweepBytes, minP99) < memberScore(out[j], b.sweepBytes, minP99)
		})
	case RouteAffinity:
		if affinity == "" {
			sortByLoad(out)
			break
		}
		sort.SliceStable(out, func(i, j int) bool {
			return affinityScore(affinity, out[i].name) > affinityScore(affinity, out[j].name)
		})
	default: // round-robin
		if n := len(out); n > 1 {
			start := int(b.next.Add(1)-1) % n
			rot := make([]*Member, 0, n)
			rot = append(rot, out[start:]...)
			rot = append(rot, out[:start]...)
			out = rot
		}
	}
	// Half-open candidates lead the live replicas: the probe is how an
	// ejected member re-earns traffic, and its failure costs only the
	// fall-through to the next candidate. The per-member single-flight
	// latch and the exponential window bound how often requests pay it.
	nowNS := now.UnixNano()
	var open []*Member
	for _, m := range b.replicas {
		if m.ejected.Load() && m.nextProbe.Load() <= nowNS {
			open = append(open, m)
		}
	}
	if len(open) == 0 {
		return out
	}
	sort.SliceStable(open, func(i, j int) bool { return open[i].lastFail.Load() < open[j].lastFail.Load() })
	return append(open, out...)
}

// sortByLoad orders members by in-flight modeled bytes ascending, ties
// broken by total routed requests (spreading a cold fleet's first
// requests instead of piling them on index 0).
func sortByLoad(ms []*Member) {
	sort.SliceStable(ms, func(i, j int) bool {
		li, lj := ms[i].inflight.Load(), ms[j].inflight.Load()
		if li != lj {
			return li < lj
		}
		return ms[i].requests.Load() < ms[j].requests.Load()
	})
}

// leastRecentlyFailed picks the forced-probe target when every replica
// of a band is ejected and no probe window is open: the member whose
// last failure is oldest — the one most likely to have healed.
func leastRecentlyFailed(ms []*Member) *Member {
	var best *Member
	for _, m := range ms {
		if best == nil || m.lastFail.Load() < best.lastFail.Load() {
			best = m
		}
	}
	return best
}

// restore returns a probed member to rotation: its circuit closes, the
// consecutive-failure count and backoff reset, and the single-flight
// probe latch releases.
func (c *Cluster) restore(m *Member) {
	m.consec.Store(0)
	m.backoffNS.Store(0)
	if m.ejected.CompareAndSwap(true, false) {
		m.recoveries.Add(1)
		c.recoveries.Add(1)
	}
	m.probing.Store(false)
}

// noteFailure records one failed sub-request's routing consequences: a
// failed probe doubles the member's backoff (capped) and re-arms its
// window; a live member's consecutive-failure count advances toward
// ejection, and ejection arms the first probe window.
func (c *Cluster) noteFailure(m *Member, probe bool, now time.Time) {
	nowNS := now.UnixNano()
	m.lastFail.Store(nowNS)
	if probe {
		back := m.backoffNS.Load() * 2
		if back < int64(c.probeBase) {
			back = int64(c.probeBase)
		}
		if back > int64(c.probeCap) {
			back = int64(c.probeCap)
		}
		m.backoffNS.Store(back)
		m.nextProbe.Store(nowNS + back)
		m.probing.Store(false)
		return
	}
	if m.consec.Add(1) >= int32(c.cfg.EjectAfter) {
		if m.ejected.CompareAndSwap(false, true) {
			c.ejections.Add(1)
			m.backoffNS.Store(int64(c.probeBase))
			m.nextProbe.Store(nowNS + int64(c.probeBase))
		}
	}
}
