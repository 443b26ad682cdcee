package server

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	spmv "repro"
)

// newLocalCluster builds n in-process member servers and a coordinator
// over them. Members are closed via t.Cleanup.
func newLocalCluster(t *testing.T, n, replicas int) (*Cluster, []*Server) {
	t.Helper()
	transports := make([]Transport, n)
	servers := make([]*Server, n)
	for i := range transports {
		s := New(DefaultConfig())
		t.Cleanup(s.Close)
		servers[i] = s
		transports[i] = NewLocalTransport(fmt.Sprintf("node%d", i), s)
	}
	c, err := NewCluster(transports, ClusterConfig{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	return c, servers
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestShardedParity is the tentpole acceptance check: K-shard serving over
// in-process transports must produce bitwise-identical results to
// single-node serving on the same matrix.
func TestShardedParity(t *testing.T) {
	for _, suite := range []string{"LP", "FEM/Cantilever"} {
		m, err := spmv.GenerateSuite(suite, 0.03, 11)
		if err != nil {
			t.Fatal(err)
		}
		_, cols := m.Dims()

		single := New(DefaultConfig())
		defer single.Close()
		if _, err := single.Register("m", suite, m); err != nil {
			t.Fatal(err)
		}
		x := randVec(cols, 42)
		want, err := single.MulOpts("m", x, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}

		for _, k := range []int{2, 4} {
			c, _ := newLocalCluster(t, k, 1)
			info, err := c.RegisterSharded("m", suite, m, k)
			if err != nil {
				t.Fatal(err)
			}
			if info.Shards != k || info.Rows == 0 {
				t.Fatalf("%s K=%d: info %+v", suite, k, info)
			}
			var bandNNZ int64
			for _, b := range info.Bands {
				bandNNZ += b.NNZ
			}
			if bandNNZ != info.NNZ {
				t.Fatalf("%s K=%d: bands hold %d nnz, matrix has %d", suite, k, bandNNZ, info.NNZ)
			}
			got, err := c.MulOpts("m", x, ClusterMulOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s K=%d: len %d want %d", suite, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s K=%d: y[%d] = %x, single-node %x", suite, k, i, got[i], want[i])
				}
			}
		}
	}
}

// flakyTransport wraps a Transport and fails Mul and Sweep after failAfter
// calls — the "member goes down mid-request" scenario.
type flakyTransport struct {
	Transport
	calls     atomic.Int64
	failAfter int64
}

func (f *flakyTransport) lost() error {
	if f.calls.Add(1) > f.failAfter {
		return fmt.Errorf("member lost: connection refused")
	}
	return nil
}

func (f *flakyTransport) Mul(id string, x []float64) ([]float64, error) {
	if err := f.lost(); err != nil {
		return nil, err
	}
	return f.Transport.Mul(id, x)
}

func (f *flakyTransport) Sweep(id string, y, x []float64) error {
	if err := f.lost(); err != nil {
		return err
	}
	return f.Transport.Sweep(id, y, x)
}

// TestShardMemberFailover kills one member mid-stream and checks that its
// bands fail over to the surviving replica, the dead member is ejected
// after EjectAfter consecutive failures, and results stay correct.
func TestShardMemberFailover(t *testing.T) {
	m, err := spmv.GenerateSuite("QCD", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()

	s0, s1 := New(DefaultConfig()), New(DefaultConfig())
	defer s0.Close()
	defer s1.Close()
	flaky := &flakyTransport{Transport: NewLocalTransport("node0", s0), failAfter: 2}
	c, err := NewCluster([]Transport{flaky, NewLocalTransport("node1", s1)},
		ClusterConfig{Replicas: 2, EjectAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSharded("m", "QCD", m, 2); err != nil {
		t.Fatal(err)
	}

	single := New(DefaultConfig())
	defer single.Close()
	if _, err := single.Register("m", "QCD", m); err != nil {
		t.Fatal(err)
	}
	x := randVec(cols, 9)
	want, err := single.MulOpts("m", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Every request must succeed: node0 dies after 2 sub-requests, but
	// node1 replicates both bands.
	for i := 0; i < 12; i++ {
		got, err := c.MulOpts("m", x, ClusterMulOptions{})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("request %d: y[%d] diverged after failover", i, j)
			}
		}
	}

	st := c.Stats()
	if st.Retries == 0 || st.Failovers == 0 {
		t.Errorf("expected retries and failovers, got %+v", st)
	}
	if st.Ejections != 1 || st.Ejected != 1 {
		t.Errorf("node0 should be ejected exactly once: %+v", st)
	}
	for _, ms := range st.Member {
		if ms.Name == "node0" && !ms.Ejected {
			t.Errorf("node0 not marked ejected: %+v", ms)
		}
	}
}

// TestShardAllReplicasDown: when every replica of a band is gone, Mul
// reports the failure instead of returning partial results.
func TestShardAllReplicasDown(t *testing.T) {
	m, err := spmv.GenerateSuite("QCD", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()

	s0 := New(DefaultConfig())
	defer s0.Close()
	flaky := &flakyTransport{Transport: NewLocalTransport("node0", s0), failAfter: 0}
	c, err := NewCluster([]Transport{flaky}, ClusterConfig{EjectAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSharded("m", "QCD", m, 2); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, cols)
	var lastErr error
	for i := 0; i < 4; i++ {
		if _, lastErr = c.MulOpts("m", x, ClusterMulOptions{}); lastErr == nil {
			t.Fatal("Mul succeeded with the only member down")
		}
	}
	if !strings.Contains(lastErr.Error(), "ejected") {
		t.Errorf("final error should report ejection, got: %v", lastErr)
	}
}

// misdimTransport registers bands with a corrupted row count — the
// "mismatched dimensions across shards" failure.
type misdimTransport struct {
	Transport
}

func (f *misdimTransport) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	info, err := f.Transport.Register(id, name, m)
	info.Rows++
	return info, err
}

// shrinkTransport returns a truncated y band — dimension corruption at
// request time rather than registration time.
type shrinkTransport struct {
	Transport
}

func (f *shrinkTransport) Mul(id string, x []float64) ([]float64, error) {
	y, err := f.Transport.Mul(id, x)
	if err != nil || len(y) == 0 {
		return y, err
	}
	return y[:len(y)-1], nil
}

// Sweep is the truncated Mul behind the length check a remote transport
// runs before it copies an answer into the caller's band.
func (f *shrinkTransport) Sweep(id string, y, x []float64) error { return mulInto(f, id, y, x) }

func TestShardMismatchedDims(t *testing.T) {
	m, err := spmv.GenerateSuite("QCD", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()

	// Registration-time mismatch: the coordinator must refuse the matrix.
	s0 := New(DefaultConfig())
	defer s0.Close()
	c, err := NewCluster([]Transport{&misdimTransport{NewLocalTransport("bad", s0)}}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterSharded("m", "QCD", m, 2); err == nil {
		t.Fatal("mismatched band dims accepted at registration")
	} else if !strings.Contains(err.Error(), "want") {
		t.Errorf("unhelpful mismatch error: %v", err)
	}
	if c.Has("m") {
		t.Error("failed registration left the id claimed")
	}

	// Request-time mismatch: a short y band must fail the request, not
	// silently corrupt the gathered result.
	s1 := New(DefaultConfig())
	defer s1.Close()
	c2, err := NewCluster([]Transport{&shrinkTransport{NewLocalTransport("short", s1)}}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.RegisterSharded("m", "QCD", m, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.MulOpts("m", make([]float64, cols), ClusterMulOptions{}); err == nil {
		t.Fatal("truncated band accepted")
	} else if !strings.Contains(err.Error(), "returned") {
		t.Errorf("unhelpful truncation error: %v", err)
	}

	// Wrong x length at the coordinator.
	if _, err := c2.MulOpts("m", make([]float64, cols+1), ClusterMulOptions{}); err == nil {
		t.Fatal("wrong-length x accepted")
	}
}

// TestShardedRegistryRace hammers a sharded cluster with concurrent
// registrations, Muls, stats polls and topology reads (run under -race).
func TestShardedRegistryRace(t *testing.T) {
	c, _ := newLocalCluster(t, 2, 2)
	m, err := spmv.GenerateSuite("Economics", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()
	if _, err := c.RegisterSharded("m0", "Economics", m, 2); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := randVec(cols, int64(g))
			for i := 0; i < 20; i++ {
				if _, err := c.MulOpts("m0", x, ClusterMulOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("r%d-%d", g, i)
				if _, err := c.RegisterSharded(id, "Economics", m, 2); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.MulOpts(id, make([]float64, cols), ClusterMulOptions{}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			c.Stats()
			c.Matrices()
			c.Members()
		}
	}()
	wg.Wait()

	// Duplicate and concurrent-duplicate registration stays an error.
	if _, err := c.RegisterSharded("m0", "Economics", m, 2); err == nil {
		t.Fatal("duplicate sharded id accepted")
	}
	if got := len(c.Matrices()); got != 7 {
		t.Fatalf("%d matrices registered, want 7", got)
	}
}

// TestShardedParityUnderLoad: concurrent Muls stream through K=2 and K=3
// registrations of the same matrix, and every response is bitwise
// identical to single-node serving — band boundaries move row ranges,
// never a row's summation order. Run under -race this also vets the
// concurrent fan-out.
func TestShardedParityUnderLoad(t *testing.T) {
	m, err := spmv.GenerateSuite("LP", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()
	single := New(DefaultConfig())
	defer single.Close()
	if _, err := single.Register("m", "LP", m); err != nil {
		t.Fatal(err)
	}
	x := randVec(cols, 3)
	want, err := single.MulOpts("m", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}

	c, _ := newLocalCluster(t, 3, 2)
	ids := []string{"k2", "k3"}
	for k, id := range ids {
		if _, err := c.RegisterSharded(id, "LP", m, k+2); err != nil {
			t.Fatal(err)
		}
	}

	const clients, perClient = 4, 30
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				id := ids[(g+i)%len(ids)]
				got, err := c.MulOpts(id, x, ClusterMulOptions{})
				if err != nil {
					errc <- err
					return
				}
				for j := range got {
					if got[j] != want[j] {
						errc <- fmt.Errorf("%s: y[%d] diverged from single-node", id, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for k, id := range ids {
		if info, err := c.Info(id); err != nil || info.Shards != k+2 {
			t.Errorf("%s: %d shards (%v), want %d", id, info.Shards, err, k+2)
		}
	}
}

// failOnceTransport fails its first Register, then passes through.
type failOnceTransport struct {
	Transport
	failed atomic.Bool
}

func (f *failOnceTransport) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	if f.failed.CompareAndSwap(false, true) {
		return MatrixInfo{}, fmt.Errorf("injected register fault")
	}
	return f.Transport.Register(id, name, m)
}

// TestRegisterShardedRetryAfterPartialFailure: a registration that fails
// on one member after others took their bands unregisters those bands,
// so a retry under the same id succeeds and every member then holds
// exactly the bands its topology lists.
func TestRegisterShardedRetryAfterPartialFailure(t *testing.T) {
	transports := make([]Transport, 3)
	servers := make([]*Server, 3)
	for i := range transports {
		servers[i] = New(DefaultConfig())
		t.Cleanup(servers[i].Close)
		transports[i] = NewLocalTransport(fmt.Sprintf("node%d", i), servers[i])
	}
	// Band 1's second replica lands on node2, after node0 and node1 hold
	// band 0 and node1 holds band 1.
	transports[2] = &failOnceTransport{Transport: transports[2]}
	c, err := NewCluster(transports, ClusterConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := tridiag(t, 30)
	if _, err := c.RegisterSharded("m", "tri", m, 3); !errors.Is(err, ErrMemberFault) {
		t.Fatalf("registration over a failing member: err = %v, want ErrMemberFault", err)
	}
	for i, s := range servers {
		if got := s.Matrices(); len(got) != 0 {
			t.Errorf("node%d kept %d bands of the failed registration", i, len(got))
		}
	}

	info, err := c.RegisterSharded("m", "tri", m, 3)
	if err != nil {
		t.Fatalf("retry of the same id: %v", err)
	}
	want := map[string][]string{}
	for _, b := range info.Bands {
		for _, name := range b.Members {
			want[name] = append(want[name], b.SubID)
		}
	}
	for i, s := range servers {
		var got []string
		for _, mi := range s.Matrices() {
			got = append(got, mi.ID)
		}
		name := transports[i].Name()
		if fmt.Sprint(got) != fmt.Sprint(want[name]) {
			t.Errorf("%s holds %v, topology lists %v", name, got, want[name])
		}
	}
	if _, err := c.MulOpts("m", make([]float64, 30), ClusterMulOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStatsRollup checks that member serving counters aggregate.
func TestShardedStatsRollup(t *testing.T) {
	c, servers := newLocalCluster(t, 2, 1)
	m, err := spmv.GenerateSuite("QCD", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, cols := m.Dims()
	if _, err := c.RegisterSharded("m", "QCD", m, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.MulOpts("m", make([]float64, cols), ClusterMulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Requests != 5 || st.Scatters != 10 {
		t.Errorf("requests=%d scatters=%d, want 5/10", st.Requests, st.Scatters)
	}
	var wantReqs uint64
	for _, s := range servers {
		wantReqs += s.Stats().Requests
	}
	if st.Aggregate.Requests != wantReqs || wantReqs != 10 {
		t.Errorf("aggregate requests %d, members total %d, want 10", st.Aggregate.Requests, wantReqs)
	}
	if st.Aggregate.Registered != 2 {
		t.Errorf("aggregate registered %d, want 2 bands", st.Aggregate.Registered)
	}
}

// TestAddStatsSumsEveryField fills every numeric field of two Stats —
// histogram buckets included — with distinct values and requires addStats
// to sum each one, so a serving counter added later and left out of the
// cluster rollup fails here.
func TestAddStatsSumsEveryField(t *testing.T) {
	var a, b Stats
	next := int64(1)
	var fill func(v reflect.Value, scale int64)
	fill = func(v reflect.Value, scale int64) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), scale)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), scale)
			}
		case reflect.Uint64:
			v.SetUint(uint64(next * scale))
			next++
		case reflect.Int64:
			v.SetInt(next * scale)
			next++
		default:
			t.Fatalf("Stats holds a %s field this test cannot fill", v.Kind())
		}
	}
	fill(reflect.ValueOf(&a).Elem(), 1)
	fill(reflect.ValueOf(&b).Elem(), 1000)

	got := a
	addStats(&got, b)
	var check func(path string, g, x, y reflect.Value)
	check = func(path string, g, x, y reflect.Value) {
		switch g.Kind() {
		case reflect.Struct:
			for i := 0; i < g.NumField(); i++ {
				check(path+"."+g.Type().Field(i).Name, g.Field(i), x.Field(i), y.Field(i))
			}
		case reflect.Array:
			for i := 0; i < g.Len(); i++ {
				check(fmt.Sprintf("%s[%d]", path, i), g.Index(i), x.Index(i), y.Index(i))
			}
		case reflect.Uint64:
			if g.Uint() != x.Uint()+y.Uint() {
				t.Errorf("%s = %d, want %d + %d", path, g.Uint(), x.Uint(), y.Uint())
			}
		case reflect.Int64:
			if g.Int() != x.Int()+y.Int() {
				t.Errorf("%s = %d, want %d + %d", path, g.Int(), x.Int(), y.Int())
			}
		}
	}
	check("Stats", reflect.ValueOf(got), reflect.ValueOf(a), reflect.ValueOf(b))
}
