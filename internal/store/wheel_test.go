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

	"conprobe/internal/minheap"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// referenceRead renders dc's timeline from the replica's log alone,
// trusting neither its stored order nor the cached renderings: copy the
// log, re-sort by (apply time, ArrivalSeq), then sort by policy or
// partition at the normalize cutoff as the read order asks, then show
// each entry's post. It is the oracle every cached or incremental path
// is compared against.
func referenceRead(c *Cluster, dc simnet.Site) []Post {
	r := c.replicas[dc]
	r.mu.Lock()
	recs := slices.Clone(r.log)
	r.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].at.Equal(recs[j].at) {
			return recs[i].at.Before(recs[j].at)
		}
		return recs[i].e.ArrivalSeq < recs[j].e.ArrivalSeq
	})
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
	posts := make([]Post, 0, len(recs))
	for _, e := range append(head, fresh...) {
		posts = append(posts, Post{ID: e.ID, Author: e.Author, Body: e.Body, CreatedAt: e.CreatedAt, DependsOn: e.DependsOn})
	}
	return posts
}

// readChecked is c.Read held against referenceRead.
func readChecked(t *testing.T, c *Cluster, dc simnet.Site) []Post {
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
// scheduler's contract: the single delivery heap lands every pending
// entry at exactly the instant the store's first scheduler — one
// re-armable timer per (site, lock stripe), four stripes per replica —
// did, so the observable replica timelines, partition retries and Reset
// epochs included, are byte-identical to that scheme's. Its side is
// testdata/delivery_<order>.golden: this scenario's transcript as the
// last commit that had it (37ac457, behind a Config switch) produced
// it. The files cannot be re-recorded from today's store; a mismatch is
// a scheduling or ordering change, not a stale golden.
func TestTimerWheelMatchesRecordedPerShardTimers(t *testing.T) {
	for _, order := range []OrderKind{OrderArrival, OrderHybrid} {
		recorded, err := os.ReadFile("testdata/delivery_" + order.String() + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got := runDeliveryScenario(t, Config{
			Mode:              Eventual,
			Order:             order,
			NormalizeAfter:    time.Second,
			LocalApplyDelay:   20 * time.Millisecond,
			LocalApplyJitter:  60 * time.Millisecond,
			PropagationBase:   80 * time.Millisecond,
			PropagationJitter: 300 * time.Millisecond,
			RetryInterval:     200 * time.Millisecond,
		}, 31)
		if got != string(recorded) {
			t.Errorf("order=%v: transcript differs from the recorded per-stripe-timer transcript", order)
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
	}, 13)
}

// TestHybridCacheSurvivesMovingCutoff pins what keys the OrderHybrid
// rendering: how many entries the cutoff has passed, not the cutoff. A
// cutoff that moves without crossing a CreatedAt is a cache hit (the same
// backing array); one that crosses renders anew and equals referenceRead.
func TestHybridCacheSurvivesMovingCutoff(t *testing.T) {
	s, c, _ := newSimCluster(t, Config{
		Mode: Eventual, Sites: []simnet.Site{simnet.DCWest},
		Order: OrderHybrid, NormalizeAfter: time.Second,
	})
	s.Go(func() {
		// m2 arrives first but was created second: arrival and policy
		// order differ, so normalizing m1 visibly reorders the timeline.
		r := c.replicas[simnet.DCWest]
		c.apply(r, Entry{ID: "m2", CreatedAt: epoch0.Add(50 * time.Millisecond), ArrivalSeq: 2}, epoch0.Add(100*time.Millisecond))
		c.apply(r, Entry{ID: "m1", CreatedAt: epoch0, ArrivalSeq: 1}, epoch0.Add(110*time.Millisecond))

		s.Sleep(200 * time.Millisecond) // cutoff at -800ms
		first := readChecked(t, c, simnet.DCWest)
		s.Sleep(700 * time.Millisecond) // cutoff at -100ms: nothing crossed
		if moved := readChecked(t, c, simnet.DCWest); &moved[0] != &first[0] {
			t.Error("a cutoff that crossed no entry missed the cache")
		}
		if !eq(idsOf(first), []string{"m2", "m1"}) {
			t.Errorf("fresh timeline = %v, want arrival order [m2 m1]", idsOf(first))
		}
		s.Sleep(125 * time.Millisecond) // cutoff at +25ms: m1 crossed, m2 not
		crossed := readChecked(t, c, simnet.DCWest)
		if &crossed[0] == &first[0] {
			t.Error("a cutoff that crossed an entry was served the old rendering")
		}
		if !eq(idsOf(crossed), []string{"m1", "m2"}) {
			t.Errorf("timeline with m1 normalized = %v, want [m1 m2]", idsOf(crossed))
		}
		if !eq(idsOf(first), []string{"m2", "m1"}) {
			t.Error("the rendering handed out before the crossing was rewritten")
		}
	})
	s.Wait()
}

// TestDeliveryQueuePopsInDueOrder pushes 10k deliveries with random due
// times drawn from a few hundred instants (so most tie) through the heap
// and requires them back in (at, seq) order.
func TestDeliveryQueuePopsInDueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q []pendingDelivery
	want := make([]pendingDelivery, 10000)
	for i := range want {
		want[i] = pendingDelivery{
			at:  epoch0.Add(time.Duration(rng.Intn(300)) * time.Millisecond),
			seq: uint64(i + 1),
			e:   Entry{ID: fmt.Sprintf("m%d", i)},
		}
		q = minheap.Push(q, want[i], (*pendingDelivery).before)
	}
	sort.Slice(want, func(i, j int) bool {
		if !want[i].at.Equal(want[j].at) {
			return want[i].at.Before(want[j].at)
		}
		return want[i].seq < want[j].seq
	})
	for i, w := range want {
		var got pendingDelivery
		if q, got = minheap.Pop(q, (*pendingDelivery).before); got != w {
			t.Fatalf("pop %d = (%v, %d), want (%v, %d)", i, got.at, got.seq, w.at, w.seq)
		}
	}
	if len(q) != 0 {
		t.Fatalf("%d deliveries left after popping every one", len(q))
	}
}

// TestReadCacheMatchesUncached pins that the renderings kept beside the
// log never serve stale or reordered data: every read of the scenario,
// back-to-back cache hits included, equals referenceRead.
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

// TestApplyKeepsLogOrdered drives apply the way only racing real-clock
// callers can — equal stamps out of ArrivalSeq order, an earlier stamp
// after a later one — which the monotone simulated clock never does, and
// requires every read order to come out as if the applies had arrived
// sorted.
func TestApplyKeepsLogOrdered(t *testing.T) {
	applies := []struct {
		seq uint64
		at  time.Duration
	}{{3, 10}, {1, 10}, {2, 10}, {5, 5}, {4, 20}}
	arrival := []string{"m5", "m1", "m2", "m3", "m4"}
	for order, want := range map[OrderKind][]string{
		OrderArrival:   arrival,
		OrderHybrid:    arrival, // nothing is older than NormalizeAfter
		OrderTimestamp: {"m1", "m2", "m3", "m4", "m5"},
	} {
		s, c, _ := newSimCluster(t, Config{
			Mode: Eventual, Sites: []simnet.Site{simnet.DCWest}, Order: order,
		})
		s.Go(func() {
			for _, a := range applies {
				c.apply(c.replicas[simnet.DCWest], Entry{
					ID:         fmt.Sprintf("m%d", a.seq),
					CreatedAt:  epoch0.Add(time.Duration(a.seq) * time.Microsecond),
					ArrivalSeq: a.seq,
				}, epoch0.Add(a.at*time.Millisecond))
				readChecked(t, c, simnet.DCWest)
			}
			if got := idsOf(readChecked(t, c, simnet.DCWest)); !eq(got, want) {
				t.Errorf("order=%v: read = %v, want %v", order, got, want)
			}
		})
		s.Wait()
	}
}
