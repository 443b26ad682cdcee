package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	spmv "repro"
)

// TestRebalanceParityUnderLoad is the elasticity race-hammer: concurrent
// Muls stream through the cluster while the topology is rebanded K=2->3
// (and back) mid-flight. Every response — before, during, and after the
// swaps — must stay bitwise identical to single-node serving, because a
// reband moves row boundaries, never per-row summation order. Run under
// -race this also vets the copy-on-write topology swap.
func TestRebalanceParityUnderLoad(t *testing.T) {
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
	if _, err := c.RegisterSharded("m", "LP", m, 2); err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 4, 30
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				got, err := c.MulOpts("m", x, ClusterMulOptions{})
				if err != nil {
					errc <- err
					return
				}
				for j := range got {
					if got[j] != want[j] {
						errc <- fmt.Errorf("y[%d] diverged from single-node mid-reband", j)
						return
					}
				}
			}
		}()
	}
	for _, k := range []int{3, 2, 3} {
		time.Sleep(2 * time.Millisecond)
		if _, err := c.Rebalance("m", k); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	info, err := c.Info("m")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 3 || info.Shards != 3 {
		t.Errorf("topology gen=%d shards=%d after three rebands, want 3/3", info.Generation, info.Shards)
	}
	if got := c.Stats().Rebalances; got != 3 {
		t.Errorf("rebalances counter = %d, want 3", got)
	}
	got, err := c.MulOpts("m", x, ClusterMulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("y[%d] diverged on the final topology", j)
		}
	}
}

// TestAutoRebalanceOnSkew: with RebalanceSkew armed, skewed per-member
// served bytes push the Jain index below threshold and the coordinator
// rebands on its own (asynchronously, single-flight).
func TestAutoRebalanceOnSkew(t *testing.T) {
	c, _ := newLocalCluster(t, 2, 1)
	c.cfg.RebalanceSkew = 0.95
	if _, err := c.RegisterSharded("a", "tri", tridiag(t, 64), 2); err != nil {
		t.Fatal(err)
	}
	// Fake a lopsided history since the topology baseline: member 0 looks
	// like it served far more bytes than member 1.
	c.members[0].served.Add(1 << 30)

	x := make([]float64, 64)
	for i := 0; i < rebalanceCheckEvery; i++ {
		if _, err := c.MulOpts("a", x, ClusterMulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Generation("a") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("skew above threshold never triggered an automatic reband")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Stats().Rebalances; got == 0 {
		t.Error("auto reband not counted in Rebalances")
	}
	// The new topology's baseline resets the skew window: driving another
	// check interval immediately must NOT reband again (cooldown).
	gen := c.Generation("a")
	for i := 0; i < rebalanceCheckEvery; i++ {
		if _, err := c.MulOpts("a", x, ClusterMulOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if got := c.Generation("a"); got != gen {
		t.Errorf("reband storm: generation advanced %d -> %d inside the cooldown", gen, got)
	}
}
