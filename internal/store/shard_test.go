package store

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// runShardScenario drives one mixed write/read workload — jittered
// propagation, local indexing delays, a mid-run partition that heals,
// a Reset, and periodic arrival-order probes at every replica — and
// returns a transcript of everything the probes observed. The
// transcript must be identical at every shard count.
func runShardScenario(t *testing.T, shards int) string {
	t.Helper()
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCAsia, simnet.DCEurope}
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(5)
	c, err := NewCluster(sim, net, Config{
		Mode:              Eventual,
		Sites:             sites,
		Order:             OrderArrival,
		LocalApplyDelay:   20 * time.Millisecond,
		LocalApplyJitter:  80 * time.Millisecond,
		PropagationBase:   100 * time.Millisecond,
		PropagationJitter: 400 * time.Millisecond,
		RetryInterval:     200 * time.Millisecond,
		Shards:            shards,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sim.Go(func() {
		rng := rand.New(rand.NewSource(17))
		for round := 0; round < 2; round++ {
			net.Partition(simnet.DCWest, simnet.DCAsia)
			for i := 0; i < 30; i++ {
				site := sites[rng.Intn(len(sites))]
				if _, err := c.Write(site, fmt.Sprintf("r%dw%d", round, i), "a", ""); err != nil {
					t.Error(err)
					return
				}
				sim.Sleep(time.Duration(rng.Intn(150)) * time.Millisecond)
				if i == 20 {
					net.Heal(simnet.DCWest, simnet.DCAsia)
				}
				// Probe mid-propagation: this is where batching vs
				// per-entry delivery could diverge if the merge order
				// were wrong.
				for _, s := range sites {
					tl, err := c.Read(s)
					if err != nil {
						t.Error(err)
						return
					}
					fmt.Fprintf(&sb, "%d/%d %s %v\n", round, i, s, idsOf(tl))
				}
			}
			sim.Sleep(30 * time.Second) // quiesce through retries
			for _, s := range sites {
				tl, _ := c.Read(s)
				fmt.Fprintf(&sb, "%d/end %s %v\n", round, s, idsOf(tl))
			}
			c.Reset()
		}
	})
	sim.Wait()
	return sb.String()
}

// TestArrivalTimelineIdenticalAcrossShardCounts pins the tentpole
// determinism guarantee: the observable replica timelines — including
// mid-propagation arrival order, partition retries and Reset epochs —
// are byte-identical whether the replica is striped into 1, 4 or 16
// shards.
func TestArrivalTimelineIdenticalAcrossShardCounts(t *testing.T) {
	ref := runShardScenario(t, 1)
	for _, shards := range []int{4, 16} {
		if got := runShardScenario(t, shards); got != ref {
			t.Errorf("shards=%d transcript differs from shards=1", shards)
		}
	}
}

// TestReadCacheMatchesUncached pins that the generation-invalidated
// timeline cache never serves stale or reordered data: every read of
// the scenario equals the uncached re-merge of shard state.
func TestReadCacheMatchesUncached(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCEurope, simnet.DCAsia}
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(9)
	c, err := NewCluster(sim, net, Config{
		Mode:              Eventual,
		Sites:             sites,
		Order:             OrderHybrid,
		NormalizeAfter:    time.Second,
		PropagationBase:   50 * time.Millisecond,
		PropagationJitter: 200 * time.Millisecond,
		Shards:            4,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	sim.Go(func() {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 25; i++ {
			site := sites[rng.Intn(len(sites))]
			if _, err := c.Write(site, fmt.Sprintf("w%d", i), "a", ""); err != nil {
				t.Error(err)
				return
			}
			sim.Sleep(time.Duration(rng.Intn(120)) * time.Millisecond)
			for _, s := range sites {
				readChecked(t, c, s)
				// Back-to-back read: a guaranteed cache hit.
				readChecked(t, c, s)
			}
		}
	})
	sim.Wait()
}
