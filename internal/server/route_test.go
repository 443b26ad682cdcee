package server

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// newPolicyCluster builds an n-member in-process cluster under cfg with
// every band replicated on all members (Replicas: n unless cfg says
// otherwise) and the 8x8 tridiagonal matrix "a" registered unsharded
// (K=1), so every request exercises exactly one replica choice.
func newPolicyCluster(t *testing.T, n int, cfg ClusterConfig) (*Cluster, []*Server) {
	t.Helper()
	transports := make([]Transport, n)
	servers := make([]*Server, n)
	for i := range transports {
		s := New(DefaultConfig())
		t.Cleanup(s.Close)
		servers[i] = s
		transports[i] = NewLocalTransport(fmt.Sprintf("node%d", i), s)
	}
	c, err := NewCluster(transports, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSharded("a", "tri", tridiag(t, 8), 1); err != nil {
		t.Fatal(err)
	}
	return c, servers
}

func TestParseRoutePolicy(t *testing.T) {
	for in, want := range map[string]RoutePolicy{
		"": RouteRoundRobin, "round-robin": RouteRoundRobin,
		"least-loaded": RouteLeastLoaded, "weighted": RouteWeighted, "affinity": RouteAffinity,
	} {
		got, err := ParseRoutePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseRoutePolicy(%q) = %q, %v, want %q", in, got, err, want)
		}
	}
	if _, err := ParseRoutePolicy("random"); err == nil {
		t.Error("ParseRoutePolicy accepted an unknown policy")
	}
	s := New(DefaultConfig())
	t.Cleanup(s.Close)
	if _, err := NewCluster([]Transport{NewLocalTransport("n", s)},
		ClusterConfig{Policy: "bogus"}); err == nil {
		t.Error("NewCluster accepted an unknown policy")
	}
}

// TestLeastLoadedPicksIdle: with in-flight bytes piled on two of three
// replicas, the least-loaded policy must route to the idle one.
func TestLeastLoadedPicksIdle(t *testing.T) {
	c, _ := newPolicyCluster(t, 3, ClusterConfig{Replicas: 3, Policy: RouteLeastLoaded})
	c.members[0].inflight.Store(1 << 20)
	c.members[1].inflight.Store(1 << 10)

	x := make([]float64, 8)
	for i := 0; i < 4; i++ {
		if _, err := c.MulOpts("a", x, ClusterMulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.members[2].requests.Load(); got != 4 {
		t.Errorf("idle member served %d of 4 requests", got)
	}
	if c.members[0].requests.Load() != 0 || c.members[1].requests.Load() != 0 {
		t.Errorf("loaded members served traffic: %d/%d",
			c.members[0].requests.Load(), c.members[1].requests.Load())
	}
}

// TestAffinityStickiness: requests sharing an affinity key land on one
// member across iterations; distinct keys may differ, and every key is
// stable under re-ranking.
func TestAffinityStickiness(t *testing.T) {
	c, _ := newPolicyCluster(t, 3, ClusterConfig{Replicas: 3, Policy: RouteAffinity})
	x := make([]float64, 8)
	for _, key := range []string{"sess-1", "sess-2", "sess-3"} {
		before := make([]uint64, 3)
		for i, m := range c.members {
			before[i] = m.requests.Load()
		}
		for i := 0; i < 5; i++ {
			if _, err := c.MulOpts("a", x, ClusterMulOptions{Affinity: key}); err != nil {
				t.Fatal(err)
			}
		}
		hit := 0
		for i, m := range c.members {
			if d := m.requests.Load() - before[i]; d > 0 {
				hit++
				if d != 5 {
					t.Errorf("key %q: member %d served %d of 5", key, i, d)
				}
			}
		}
		if hit != 1 {
			t.Errorf("key %q spread across %d members, want 1", key, hit)
		}
	}
}

// TestWeightedAvoidsFailureWindow: the weighted score must rank a member
// with a bad windowed failure rate behind a clean one even when both
// have identical load.
func TestWeightedAvoidsFailureWindow(t *testing.T) {
	c, _ := newPolicyCluster(t, 2, ClusterConfig{Replicas: 2, Policy: RouteWeighted})
	c.members[0].winTotal.Store(100)
	c.members[0].winFail.Store(50)

	e, err := c.entry("a")
	if err != nil {
		t.Fatal(err)
	}
	b := e.bands[0]
	ranked := c.rankReplicas(b, "", c.now())
	if len(ranked) != 2 || ranked[0] != c.members[1] {
		t.Errorf("weighted ranking put the 50%%-failure member first")
	}
	if r := c.members[0].failRate(); r != 0.5 {
		t.Errorf("failRate = %g, want 0.5", r)
	}
}

// alternatingTransport fails every period-th Mul or Sweep, starting with
// the first (period 0 means 2: every other call — the pattern that never
// accumulates EjectAfter consecutive failures and so, before the windowed
// failure rate existed, kept absorbing half the traffic and failing it).
type alternatingTransport struct {
	Transport
	calls  atomic.Int64
	period int64
}

func (a *alternatingTransport) flap() error {
	if (a.calls.Add(1)-1)%max(a.period, 2) == 0 {
		return fmt.Errorf("member flapping: connection reset")
	}
	return nil
}

func (a *alternatingTransport) Mul(id string, x []float64) ([]float64, error) {
	if err := a.flap(); err != nil {
		return nil, err
	}
	return a.Transport.Mul(id, x)
}

func (a *alternatingTransport) Sweep(id string, y, x []float64) error {
	if err := a.flap(); err != nil {
		return err
	}
	return a.Transport.Sweep(id, y, x)
}

// TestAlternatingFailureRoutedAround: an alternating success/failure
// member never trips the consecutive-failure ejection, but the weighted
// policy's windowed failure rate steers traffic to the clean replica.
func TestAlternatingFailureRoutedAround(t *testing.T) {
	s0, s1 := New(DefaultConfig()), New(DefaultConfig())
	t.Cleanup(s0.Close)
	t.Cleanup(s1.Close)
	flap := &alternatingTransport{Transport: NewLocalTransport("node0", s0)}
	c, err := NewCluster([]Transport{flap, NewLocalTransport("node1", s1)},
		ClusterConfig{Replicas: 2, EjectAfter: 3, Policy: RouteWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSharded("a", "tri", tridiag(t, 8), 1); err != nil {
		t.Fatal(err)
	}

	x := make([]float64, 8)
	for i := 0; i < 40; i++ {
		if _, err := c.MulOpts("a", x, ClusterMulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.members[0].ejected.Load() {
		t.Error("alternating member tripped consecutive-failure ejection")
	}
	if r := c.members[0].failRate(); r == 0 {
		t.Error("flapping member shows a zero failure window")
	}
	m0, m1 := c.members[0].requests.Load(), c.members[1].requests.Load()
	if m1 < 35 || m0 > 5 {
		t.Errorf("weighted routing split %d/%d, want nearly all on the clean member", m0, m1)
	}
}

// gateTransport fails Mul and Sweep while down is set (a transport-level
// outage that later heals).
type gateTransport struct {
	Transport
	down atomic.Bool
}

func (g *gateTransport) outage() error {
	if g.down.Load() {
		return fmt.Errorf("member down: connection refused")
	}
	return nil
}

func (g *gateTransport) Mul(id string, x []float64) ([]float64, error) {
	if err := g.outage(); err != nil {
		return nil, err
	}
	return g.Transport.Mul(id, x)
}

func (g *gateTransport) Sweep(id string, y, x []float64) error {
	if err := g.outage(); err != nil {
		return err
	}
	return g.Transport.Sweep(id, y, x)
}

// TestHalfOpenRecovery drives the full circuit on a fake clock: eject
// after consecutive failures (open), window opens after the backoff
// (half-open), a failed probe doubles the backoff, and a successful
// probe restores the member to rotation (closed).
func TestHalfOpenRecovery(t *testing.T) {
	s0, s1 := New(DefaultConfig()), New(DefaultConfig())
	t.Cleanup(s0.Close)
	t.Cleanup(s1.Close)
	gate := &gateTransport{Transport: NewLocalTransport("node0", s0)}
	probeBase := 50 * time.Millisecond
	c, err := NewCluster([]Transport{gate, NewLocalTransport("node1", s1)},
		ClusterConfig{Replicas: 2, EjectAfter: 2, ProbeInterval: probeBase})
	if err != nil {
		t.Fatal(err)
	}
	var fake atomic.Int64
	fake.Store(time.Unix(1000, 0).UnixNano())
	c.now = func() time.Time { return time.Unix(0, fake.Load()) }
	if _, err := c.RegisterSharded("a", "tri", tridiag(t, 8), 1); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	mul := func() {
		t.Helper()
		if _, err := c.MulOpts("a", x, ClusterMulOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Break the member and drive until ejection (requests keep succeeding
	// by failover throughout).
	gate.down.Store(true)
	for i := 0; i < 10 && !c.members[0].ejected.Load(); i++ {
		mul()
	}
	if !c.members[0].ejected.Load() {
		t.Fatal("member not ejected after consecutive failures")
	}
	if got := c.members[0].probeState(c.now()); got != ProbeOpen {
		t.Fatalf("probe state %q after ejection, want open", got)
	}

	// Window still closed: no probes reach the member even when healed.
	gate.down.Store(false)
	healedAt := c.members[0].requests.Load()
	mul()
	if c.members[0].requests.Load() != healedAt {
		t.Error("ejected member served traffic before its probe window opened")
	}

	// Re-break, open the window, and fail a probe: backoff doubles.
	gate.down.Store(true)
	fake.Add(int64(probeBase) + 1)
	if got := c.members[0].probeState(c.now()); got != ProbeHalfOpen {
		t.Fatalf("probe state %q with window open, want half-open", got)
	}
	mul()
	if got := c.members[0].backoffNS.Load(); got != int64(2*probeBase) {
		t.Errorf("backoff after failed probe = %v, want %v", time.Duration(got), 2*probeBase)
	}
	if !c.members[0].ejected.Load() {
		t.Error("failed probe closed the circuit")
	}

	// Heal, wait out the doubled backoff: the next request probes and
	// restores the member.
	gate.down.Store(false)
	fake.Add(int64(2*probeBase) + 1)
	mul()
	if c.members[0].ejected.Load() {
		t.Fatal("successful probe did not restore the member")
	}
	if got := c.members[0].probeState(c.now()); got != ProbeClosed {
		t.Errorf("probe state %q after recovery, want closed", got)
	}
	st := c.Stats()
	if st.Recoveries != 1 || st.Probes < 2 {
		t.Errorf("stats probes=%d recoveries=%d, want >=2 probes and 1 recovery", st.Probes, st.Recoveries)
	}

	// Traffic returns: the restored member rejoins the rotation.
	before := c.members[0].requests.Load()
	for i := 0; i < 4; i++ {
		mul()
	}
	if c.members[0].requests.Load() == before {
		t.Error("restored member received no traffic")
	}
}

// TestForcedProbeWhenAllEjected: a band whose replicas are all ejected
// with closed windows degrades to a forced probe of the least-recently
// failed member instead of failing the request — and recovers the fleet
// when that member has healed.
func TestForcedProbeWhenAllEjected(t *testing.T) {
	s0, s1 := New(DefaultConfig()), New(DefaultConfig())
	t.Cleanup(s0.Close)
	t.Cleanup(s1.Close)
	g0 := &gateTransport{Transport: NewLocalTransport("node0", s0)}
	g1 := &gateTransport{Transport: NewLocalTransport("node1", s1)}
	c, err := NewCluster([]Transport{g0, g1},
		ClusterConfig{Replicas: 2, EjectAfter: 1, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var fake atomic.Int64
	fake.Store(time.Unix(1000, 0).UnixNano())
	c.now = func() time.Time { return time.Unix(0, fake.Load()) }
	if _, err := c.RegisterSharded("a", "tri", tridiag(t, 8), 1); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)

	g0.down.Store(true)
	g1.down.Store(true)
	if _, err := c.MulOpts("a", x, ClusterMulOptions{}); err == nil {
		t.Fatal("mul succeeded with every member down")
	} else if !errors.Is(err, ErrMemberFault) {
		t.Fatalf("error %v, want ErrMemberFault", err)
	}
	if !c.members[0].ejected.Load() || !c.members[1].ejected.Load() {
		t.Fatal("members not ejected with EjectAfter=1")
	}

	// Windows are an hour away, but the forced probe tries the least
	// recently failed member anyway — first still down, then healed.
	if _, err := c.MulOpts("a", x, ClusterMulOptions{}); !errors.Is(err, ErrMemberFault) {
		t.Fatalf("forced probe on a down fleet: err = %v, want ErrMemberFault", err)
	}
	g0.down.Store(false)
	g1.down.Store(false)
	deadline := time.Now().Add(time.Second)
	for {
		if _, err := c.MulOpts("a", x, ClusterMulOptions{}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed fleet never recovered through forced probes")
		}
	}
	if c.Stats().Recoveries == 0 {
		t.Error("forced-probe recovery not counted")
	}
}
