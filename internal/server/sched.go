// SLO-aware multi-tenant admission and scheduling glue: the serving
// layer's binding of internal/sched onto the request path. Every request
// carries a tenant id and an SLO class; per-tenant token buckets —
// refilled in the modeled bytes/s of internal/traffic — gate admission,
// and batch execution is ordered by the priority gate (strict class
// priority, shortest-job-first within a class, aging escalator). Solver
// sessions charge the same buckets per iteration-burst, so a tenant's
// bulk CG solve and its interactive Muls draw down one budget.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
)

// DefaultTenant is the tenant id applied to requests that name none.
const DefaultTenant = "default"

// maxTrackedTenants bounds the per-tenant accounting map against
// hostile tenant-id cardinality; once full, unseen tenants share one
// overflow account (and its bucket).
const maxTrackedTenants = 1024

// overflowTenant is the shared account unseen tenants fall into once
// the tracking map is full.
const overflowTenant = "!overflow"

// MulOptions modifies one Mul request. The zero value is a standard
// request from the default tenant with no deadline.
type MulOptions struct {
	// Tenant identifies the budget the request draws from (token-bucket
	// admission, fairness accounting). Empty means DefaultTenant.
	Tenant string
	// Class is the SLO class name: "latency", "standard", or "bulk".
	// Empty applies the server's configured default class.
	Class string
	// Deadline bounds the request's time in the serving layer: a request
	// still waiting for its sweep when the deadline expires fails with
	// ErrDeadlineExceeded instead of executing. Zero means none.
	Deadline time.Duration
	// Affinity is the routing key for sharded matrices under the
	// session-affinity cluster policy: requests sharing a key stick to one
	// replica per band. Ignored for locally served matrices and for other
	// routing policies.
	Affinity string
}

// SolveOptions modifies one solver-session creation, mirroring
// MulOptions for the session's admission identity.
type SolveOptions struct {
	// Tenant identifies the budget the session's iterations draw from.
	// Empty means DefaultTenant.
	Tenant string
	// Class is the SLO class the session's sweeps are scheduled under.
	// Empty applies the server's configured default class.
	Class string
}

// AdmissionError reports a token-bucket rejection: the tenant's budget
// cannot cover the request's modeled cost yet. It unwraps to
// ErrAdmissionLimited (429) and carries the bucket's refill estimate,
// which the HTTP layer surfaces as Retry-After.
type AdmissionError struct {
	Tenant     string
	Cost       int64 // modeled bytes the request asked for
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("server: tenant %q admission limited: %d modeled bytes over budget, retry in %s",
		e.Tenant, e.Cost, e.RetryAfter.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrAdmissionLimited) classify admission
// rejections without losing the structured retry estimate.
func (e *AdmissionError) Is(target error) bool { return target == ErrAdmissionLimited }

// tenantAccount is one tenant's admission bucket and byte ledger. The
// counters are atomics: admission and completion touch them from
// request goroutines, the stats endpoints read them without locks.
type tenantAccount struct {
	bucket *sched.Bucket // nil when the tenant is not admission-controlled

	served        atomic.Uint64 // requests (and sessions) admitted and completed
	servedBytes   atomic.Int64  // modeled bytes actually executed
	rejected      atomic.Uint64 // requests refused by the bucket
	rejectedBytes atomic.Int64  // modeled bytes refused
	queuedBytes   atomic.Int64  // modeled bytes admitted but not yet executing
}

// classCounters is the per-SLO-class ledger.
type classCounters struct {
	served      atomic.Uint64
	servedBytes atomic.Int64
	rejected    atomic.Uint64
	expired     atomic.Uint64 // deadline-expired while queued
}

// schedState is the server's admission-and-scheduling state; nil when
// Config.Sched is inactive, making the whole layer zero-cost.
type schedState struct {
	cfg  sched.Config
	gate *sched.Gate // nil unless cfg.Enabled

	mu      sync.Mutex
	tenants map[string]*tenantAccount
	classes [sched.NumClasses]classCounters
}

func newSchedState(cfg sched.Config, slots int) *schedState {
	if !cfg.Active() {
		return nil
	}
	st := &schedState{cfg: cfg, tenants: make(map[string]*tenantAccount)}
	if cfg.Enabled {
		st.gate = sched.NewGate(slots, cfg.Aging)
	}
	return st
}

// account returns the tenant's ledger, creating it (with its bucket,
// when the config admission-controls the tenant) on first sight. Past
// maxTrackedTenants, unseen tenants share the overflow account.
func (sc *schedState) account(tenant string) *tenantAccount {
	if tenant == "" {
		tenant = DefaultTenant
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if a, ok := sc.tenants[tenant]; ok {
		return a
	}
	if len(sc.tenants) >= maxTrackedTenants {
		if a, ok := sc.tenants[overflowTenant]; ok {
			return a
		}
		tenant = overflowTenant
	}
	a := &tenantAccount{}
	if rate, burst := sc.cfg.LimitFor(tenant); rate > 0 {
		a.bucket = sched.NewBucket(rate, burst)
	}
	sc.tenants[tenant] = a
	return a
}

// admit charges cost modeled bytes against the tenant's bucket,
// recording the outcome in the tenant and class ledgers. A nil error
// means the request is admitted (and its bytes counted as queued until
// execution starts).
func (sc *schedState) admit(tenant string, class sched.Class, cost int64) (*tenantAccount, error) {
	a := sc.account(tenant)
	if a.bucket != nil {
		if ok, retry := a.bucket.Take(cost); !ok {
			a.rejected.Add(1)
			a.rejectedBytes.Add(cost)
			sc.classes[class].rejected.Add(1)
			if tenant == "" {
				tenant = DefaultTenant
			}
			return nil, &AdmissionError{Tenant: tenant, Cost: cost, RetryAfter: retry}
		}
	}
	a.queuedBytes.Add(cost)
	return a, nil
}

// complete records one successfully served request.
func (sc *schedState) complete(a *tenantAccount, class sched.Class, cost int64) {
	a.served.Add(1)
	sc.classes[class].served.Add(1)
	sc.chargeBytes(a, class, cost)
}

// chargeBytes accounts executed modeled bytes to the tenant and class
// ledgers (the allocations the Jain index is computed over). Solver
// sessions call it once per iteration-burst; Muls once at completion.
func (sc *schedState) chargeBytes(a *tenantAccount, class sched.Class, n int64) {
	a.servedBytes.Add(n)
	sc.classes[class].servedBytes.Add(n)
}

// resolveClass maps a wire class name to its sched.Class, applying the
// configured default to the empty string. It works whether or not the
// scheduling layer is active, so per-class latency histograms label
// correctly even on a FIFO server.
func (s *Server) resolveClass(name string) (sched.Class, error) {
	if name == "" {
		return s.cfg.Sched.DefaultClass, nil
	}
	return sched.ParseClass(name)
}

// TenantStats is one tenant's admission ledger in /v1/stats.
type TenantStats struct {
	ServedRequests   uint64 `json:"served_requests"`
	ServedBytes      int64  `json:"served_bytes"`
	RejectedRequests uint64 `json:"rejected_requests"`
	RejectedBytes    int64  `json:"rejected_bytes"`
	QueuedBytes      int64  `json:"queued_bytes"`
	// BucketBalance is the tenant's current token balance in modeled
	// bytes (negative while paying off an over-burst job); absent when
	// the tenant is not admission-controlled.
	BucketBalance *int64 `json:"bucket_balance,omitempty"`
}

// ClassStats is one SLO class's ledger in /v1/stats.
type ClassStats struct {
	ServedRequests   uint64 `json:"served_requests"`
	ServedBytes      int64  `json:"served_bytes"`
	RejectedRequests uint64 `json:"rejected_requests"`
	ExpiredRequests  uint64 `json:"expired_requests"`
	// QueuedBytes is the modeled bytes of this class currently waiting
	// at the priority gate (0 when scheduling is off).
	QueuedBytes int64 `json:"queued_bytes"`
}

// AdmissionReport is the admission-and-scheduling section of /v1/stats.
type AdmissionReport struct {
	// Scheduling reports whether the priority gate is ordering sweeps;
	// AdmissionControl whether token buckets are gating admission.
	Scheduling       bool                   `json:"scheduling"`
	AdmissionControl bool                   `json:"admission_control"`
	DefaultClass     string                 `json:"default_class"`
	Tenants          map[string]TenantStats `json:"tenants"`
	Classes          map[string]ClassStats  `json:"classes"`
	// JainFairness is Jain's index over per-tenant served modeled bytes:
	// 1 when the byte budget was split evenly, toward 1/n as one tenant
	// dominates.
	JainFairness float64 `json:"jain_fairness"`
}

// Admission snapshots the admission-and-scheduling ledgers, or nil when
// the layer is inactive.
func (s *Server) Admission() *AdmissionReport {
	sc := s.sched
	if sc == nil {
		return nil
	}
	rep := &AdmissionReport{
		Scheduling:       sc.gate != nil,
		AdmissionControl: sc.cfg.AdmissionControlled(),
		DefaultClass:     sc.cfg.DefaultClass.String(),
		Tenants:          make(map[string]TenantStats),
		Classes:          make(map[string]ClassStats),
	}
	var queued [sched.NumClasses]int64
	if sc.gate != nil {
		queued = sc.gate.QueuedBytes()
	}
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		cc := &sc.classes[c]
		rep.Classes[c.String()] = ClassStats{
			ServedRequests:   cc.served.Load(),
			ServedBytes:      cc.servedBytes.Load(),
			RejectedRequests: cc.rejected.Load(),
			ExpiredRequests:  cc.expired.Load(),
			QueuedBytes:      queued[c],
		}
	}
	sc.mu.Lock()
	accounts := make(map[string]*tenantAccount, len(sc.tenants))
	for name, a := range sc.tenants {
		accounts[name] = a
	}
	sc.mu.Unlock()
	allocs := make([]float64, 0, len(accounts))
	for name, a := range accounts {
		ts := TenantStats{
			ServedRequests:   a.served.Load(),
			ServedBytes:      a.servedBytes.Load(),
			RejectedRequests: a.rejected.Load(),
			RejectedBytes:    a.rejectedBytes.Load(),
			QueuedBytes:      a.queuedBytes.Load(),
		}
		if a.bucket != nil {
			bal := a.bucket.Balance()
			ts.BucketBalance = &bal
		}
		rep.Tenants[name] = ts
		allocs = append(allocs, float64(ts.ServedBytes))
	}
	rep.JainFairness = sched.JainIndex(allocs)
	return rep
}
