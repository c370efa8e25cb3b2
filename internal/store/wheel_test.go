package store

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// referenceRead renders dc's timeline from shard state alone, the way
// the store did before the timeline and cutoff caches: snapshot every
// shard under its lock, merge into (apply time, ArrivalSeq) order, then
// sort by policy or partition at the normalize cutoff as the read order
// asks. Nothing is cached or incremental, so it is the oracle the cached
// render paths are compared against.
func referenceRead(c *Cluster, dc simnet.Site) []Entry {
	r := c.replicas[dc]
	for _, sh := range r.shards {
		sh.mu.Lock()
	}
	var recs []appliedEntry
	for _, sh := range r.shards {
		recs = append(recs, sh.recs...)
	}
	for _, sh := range r.shards {
		sh.mu.Unlock()
	}
	sortApplied(recs)
	hybrid := c.cfg.Order == OrderHybrid && c.hybridOn.Load()
	cutoff := c.clock.Now().Add(-c.cfg.NormalizeAfter)
	var head, fresh []Entry // policy-ordered prefix, arrival-ordered rest
	for _, rec := range recs {
		if c.cfg.Order == OrderArrival || hybrid && !rec.e.CreatedAt.Before(cutoff) {
			fresh = append(fresh, rec.e)
		} else {
			head = append(head, rec.e)
		}
	}
	sort.SliceStable(head, func(i, j int) bool { return c.cfg.Policy.less(head[i], head[j]) })
	return append(head, fresh...)
}

// readChecked is c.Read held against referenceRead.
func readChecked(t *testing.T, c *Cluster, dc simnet.Site) []Entry {
	t.Helper()
	got, err := c.Read(dc)
	if err != nil {
		t.Error(err)
	}
	if want := referenceRead(c, dc); !slices.Equal(got, want) {
		t.Errorf("Read(%s) = %v, reference %v", dc, idsOf(got), idsOf(want))
	}
	return got
}

// runDeliveryScenario drives a workload shaped to stress the delivery
// scheduler — jittered propagation, a partition that forces retry
// re-arms, a Reset mid-run, and probes at every replica between
// writes, each read held against referenceRead — and returns a
// transcript of everything observed.
func runDeliveryScenario(t *testing.T, cfg Config, seed int64) string {
	t.Helper()
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCAsia}
	cfg.Sites = sites
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(seed)
	c, err := NewCluster(sim, net, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sim.Go(func() {
		rng := rand.New(rand.NewSource(23))
		for round := 0; round < 2; round++ {
			net.Partition(simnet.DCWest, simnet.DCAsia)
			for i := 0; i < 25; i++ {
				site := sites[rng.Intn(len(sites))]
				if _, err := c.Write(site, fmt.Sprintf("r%dw%d", round, i), "a", ""); err != nil {
					t.Error(err)
					return
				}
				sim.Sleep(time.Duration(rng.Intn(140)) * time.Millisecond)
				if i == 15 {
					net.Heal(simnet.DCWest, simnet.DCAsia)
				}
				for _, s := range sites {
					fmt.Fprintf(&sb, "%d/%d %s %v\n", round, i, s, idsOf(readChecked(t, c, s)))
				}
			}
			sim.Sleep(30 * time.Second) // quiesce through retries
			for _, s := range sites {
				fmt.Fprintf(&sb, "%d/end %s %v\n", round, s, idsOf(readChecked(t, c, s)))
			}
			c.Reset()
		}
	})
	sim.Wait()
	return sb.String()
}

// TestTimerWheelMatchesRecordedPerShardTimers pins the delivery
// scheduler's contract: the cluster-wide timer wheel delivers every
// pending entry at exactly the instant the one-timer-per-shard scheme it
// replaced did, so the observable replica timelines — including
// partition retries and Reset epochs — are byte-identical to that
// scheme's. The per-shard timers are gone from the store, so their side
// is testdata/delivery_<order>.golden: this scenario's transcript as
// the last commit that had them (37ac457, behind a Config switch)
// produced it. The files cannot be re-recorded from the wheel; a
// mismatch is a scheduling change, not a stale golden.
func TestTimerWheelMatchesRecordedPerShardTimers(t *testing.T) {
	for _, order := range []OrderKind{OrderArrival, OrderHybrid} {
		perShard, err := os.ReadFile("testdata/delivery_" + order.String() + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		wheel := runDeliveryScenario(t, Config{
			Mode:              Eventual,
			Order:             order,
			NormalizeAfter:    time.Second,
			LocalApplyDelay:   20 * time.Millisecond,
			LocalApplyJitter:  60 * time.Millisecond,
			PropagationBase:   80 * time.Millisecond,
			PropagationJitter: 300 * time.Millisecond,
			RetryInterval:     200 * time.Millisecond,
			Shards:            4,
		}, 31)
		if wheel != string(perShard) {
			t.Errorf("order=%v: timer-wheel transcript differs from the recorded per-shard-timer transcript", order)
		}
	}
}

// TestCutoffCacheMatchesUncached pins the OrderHybrid read cache keyed
// by the normalize cutoff: serving the memoized partition+sort result
// must be indistinguishable from recomputing it on every read
// (referenceRead, inside the scenario), across cutoff movement, fresh
// suffix growth and cache invalidation.
func TestCutoffCacheMatchesUncached(t *testing.T) {
	runDeliveryScenario(t, Config{
		Mode:              Eventual,
		Order:             OrderHybrid,
		NormalizeAfter:    time.Second,
		PropagationBase:   50 * time.Millisecond,
		PropagationJitter: 250 * time.Millisecond,
		RetryInterval:     200 * time.Millisecond,
		Shards:            4,
	}, 13)
}
