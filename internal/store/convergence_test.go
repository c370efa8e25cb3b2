package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// TestEventualConvergenceProperty is the substrate's core liveness
// invariant: under arbitrary interleavings of writes at arbitrary
// replicas — with jittered propagation and transient partitions that
// heal — all replicas eventually hold the same set of entries, and under
// timestamp ordering, the same sequence. Each seed runs three times
// (under subtest names from the lock-stripe era, see stripeEraCounts) and
// must converge to the same sequence every time.
func TestEventualConvergenceProperty(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCAsia, simnet.DCEurope}
	// converged[seed] is the sequence reached by the first run of the
	// seed; every repeat must reproduce it exactly.
	converged := make(map[int64][]string)
	for _, shards := range stripeEraCounts {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
					net := simnet.DefaultTopology(seed)
					c, err := NewCluster(sim, net, Config{
						Mode:              Eventual,
						Sites:             sites,
						PropagationBase:   100 * time.Millisecond,
						PropagationJitter: 400 * time.Millisecond,
						RetryInterval:     200 * time.Millisecond,
					}, seed)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed * 7))
					const writes = 40

					sim.Go(func() {
						// Random transient partition through the middle of the run.
						pa, pb := sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))]
						partitioned := pa != pb
						if partitioned {
							net.Partition(pa, pb)
						}
						for i := 0; i < writes; i++ {
							site := sites[rng.Intn(len(sites))]
							if _, err := c.Write(site, fmt.Sprintf("w%d", i), "a", ""); err != nil {
								t.Error(err)
								return
							}
							sim.Sleep(time.Duration(rng.Intn(200)) * time.Millisecond)
						}
						if partitioned {
							net.Heal(pa, pb)
						}
						// Quiescence: longest possible delay is base+jitter plus
						// retry rounds.
						sim.Sleep(30 * time.Second)

						ref, err := c.Read(sites[0])
						if err != nil {
							t.Error(err)
							return
						}
						if len(ref) != writes {
							t.Errorf("replica %s has %d entries, want %d", sites[0], len(ref), writes)
							return
						}
						for _, s := range sites[1:] {
							got, err := c.Read(s)
							if err != nil {
								t.Error(err)
								return
							}
							if len(got) != len(ref) {
								t.Errorf("replica %s has %d entries, want %d", s, len(got), len(ref))
								return
							}
							for i := range ref {
								if got[i].ID != ref[i].ID {
									t.Errorf("replica %s order differs at %d: %s vs %s",
										s, i, got[i].ID, ref[i].ID)
									return
								}
							}
						}
						if want, seen := converged[seed]; !seen {
							converged[seed] = idsOf(ref)
						} else if !eq(idsOf(ref), want) {
							t.Errorf("converged sequence differs from the seed's first run:\n got %v\nwant %v",
								idsOf(ref), want)
						}
					})
					sim.Wait()
				})
			}
		})
	}
}

// TestStrongConvergenceImmediateProperty checks that under strong mode
// every replica is identical after every single write, regardless of
// write placement.
func TestStrongConvergenceImmediateProperty(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCEurope}
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(3)
	c, err := NewCluster(sim, net, Config{Mode: Strong, Sites: sites}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sim.Go(func() {
		for i := 0; i < 30; i++ {
			site := sites[rng.Intn(len(sites))]
			if _, err := c.Write(site, fmt.Sprintf("w%d", i), "a", ""); err != nil {
				t.Error(err)
				return
			}
			want := i + 1
			for _, s := range sites {
				if got := c.Len(s); got != want {
					t.Errorf("after write %d: replica %s has %d", i, s, got)
					return
				}
			}
			sim.Sleep(10 * time.Millisecond)
		}
	})
	sim.Wait()
}
