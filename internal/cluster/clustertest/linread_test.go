package clustertest

import (
	"fmt"
	"testing"
	"time"

	"conprobe/internal/cluster"
)

// TestLinReadNeverServesUncommitted pins both sides of a linearizable
// read at the moment they are easiest to get wrong. In the lease and
// quorum cases a leader proposes w1 it can no longer commit and serves a
// read of that mode while w1 is in its log; the leader is then isolated
// until a successor takes over without w1. A read that returned w1
// served a write that was later lost, and AssertConverged's ceiling
// check fails. The barrier case starts a read at a leader elected
// before it knows that w1 — acked by its predecessor — committed: the
// read must wait for the new leader's barrier to commit, or it misses
// w1 and settleReads fails the floor check.
func TestLinReadNeverServesUncommitted(t *testing.T) {
	cases := []struct {
		name   string
		seeds  []int64
		window func(c *Cluster, leader string)
	}{
		{"lease", []int64{1}, func(c *Cluster, leader string) {
			c.Isolate(leader)
			c.TryWrite()
			c.StartLinRead(cluster.ReadLease)
		}},
		{"quorum", []int64{1, 2, 3, 4, 5}, func(c *Cluster, leader string) {
			c.StartLinRead(cluster.ReadQuorum)
			c.RunFor(maxHop)
			for _, f := range c.IDs {
				if f != leader {
					c.LagLink(leader, f, 10*time.Second)
				}
			}
			c.TryWrite()
			c.RunFor(maxHop + time.Millisecond)
		}},
		{"barrier", []int64{1, 2, 3, 4, 5}, readAtFreshLeader},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				c := New(t, seed, 3)
				c.RunFor(2 * time.Second)
				c.RunFor(200 * time.Millisecond)
				leader := c.Leader()
				if leader == "" {
					c.fatalf("no leader after 2.2s")
				}
				tc.window(c, leader)
				c.settleReads()
				if c.LinServed == 0 {
					c.fatalf("the %s read was not served", tc.name)
				}
				c.Isolate(leader)
				c.RunFor(3 * time.Second)
				c.Heal()
				c.RunFor(3 * time.Second)
				c.AssertConverged()
			})
		}
	}
}

// readAtFreshLeader commits w1 with one follower cut off, isolates the
// leader before the other follower hears that w1 committed, and starts a
// quorum read at whichever of the two followers wins the next election
// the moment it does. The cut-off follower lacks w1 and the new
// leader's barrier, so it confirms heartbeat rounds before it can ack
// the barrier: leadership is proven while the new leader's commit index
// is still below w1.
func readAtFreshLeader(c *Cluster, leader string) {
	var behind string
	for _, id := range c.IDs {
		if id != leader {
			behind = id
			break
		}
	}
	c.Isolate(behind)
	wid := c.TryWrite()
	for deadline := c.Clock.Now().Add(time.Second); !c.Acked[wid]; c.RunFor(time.Millisecond) {
		if c.Clock.Now().After(deadline) {
			c.fatalf("%s not acked within 1s", wid)
		}
	}
	c.Heal()
	c.Isolate(leader)
	for deadline := c.Clock.Now().Add(5 * time.Second); c.Leader() == leader; c.RunFor(time.Millisecond) {
		if c.Clock.Now().After(deadline) {
			c.fatalf("no new leader within 5s of isolating %s", leader)
		}
	}
	// Serve the read the moment it is ready, as a client would.
	c.StartLinRead(cluster.ReadQuorum)
	for deadline := c.Clock.Now().Add(time.Second); len(c.reads) > 0; c.RunFor(time.Millisecond) {
		if c.Clock.Now().After(deadline) {
			c.fatalf("the read at the new leader was neither served nor refused within 1s")
		}
		c.settleReads()
	}
}
