package main

import (
	"fmt"
	"path/filepath"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/cluster/clustertest"
)

// The cost model runs the same three nodes, at the same shipped timers,
// on clustertest's virtual clock and in-process fabric: one seeded
// scheduler on one goroutine, so every count and every virtual latency
// repeats exactly and no CPU saving can move them. They explain
// cluster_3node (how many messages, flushes and bytes a commit costs,
// and which timer it waits on); they are not end-to-end figures.

// simHop is the one-way message delay injected between nodes: loopback
// scale, so virtual latencies are the protocol's timers and nothing else.
const simHop = 200 * time.Microsecond

// countedTransport counts every RPC a node sends.
type countedTransport struct {
	cluster.Transport
	rpcs *int
}

func (t countedTransport) RequestVote(peer string, req cluster.VoteRequest, done func(cluster.VoteResponse, error)) {
	*t.rpcs++
	t.Transport.RequestVote(peer, req, done)
}

func (t countedTransport) Heartbeat(peer string, req cluster.HeartbeatRequest, done func(cluster.HeartbeatResponse, error)) {
	*t.rpcs++
	t.Transport.Heartbeat(peer, req, done)
}

func (t countedTransport) Pull(peer string, req cluster.PullRequest, done func(cluster.PullResponse, error)) {
	*t.rpcs++
	t.Transport.Pull(peer, req, done)
}

func (t countedTransport) FetchSnapshotChunk(peer string, req cluster.SnapshotChunkRequest, done func(cluster.SnapshotChunkResponse, error)) {
	*t.rpcs++
	t.Transport.FetchSnapshotChunk(peer, req, done)
}

// simCluster is three nodes on the virtual clock. Everything runs on
// the calling goroutine, inside Clock.RunFor.
type simCluster struct {
	clock *clustertest.Clock
	net   *clustertest.Net
	urls  []string
	nodes []*cluster.Node
	fs    []*countFS
	live  []bool
	rpcs  int
	// commitAt is the virtual instant each index was first committed.
	commitAt map[uint64]time.Time
}

func newSimCluster(dir string, seed int64, nosync bool) (*simCluster, error) {
	c := &simCluster{clock: clustertest.NewClock(), commitAt: make(map[uint64]time.Time)}
	c.net = clustertest.NewNet(c.clock, seed, simHop, simHop)
	for i := 0; i < clusterSize; i++ {
		c.urls = append(c.urls, fmt.Sprintf("node://n%d", i+1))
	}
	for i, u := range c.urls {
		var peers []string
		for j, p := range c.urls {
			if j != i {
				peers = append(peers, p)
			}
		}
		fs := newCountFS("wal", nil, nil)
		node, err := cluster.NewNode(&memSvc{}, cluster.Config{
			NodeID: fmt.Sprintf("n%d", i+1), SelfURL: u, Peers: peers,
			DataDir: filepath.Join(dir, fmt.Sprintf("n%d", i+1)), NoSync: nosync, FS: fs,
			Seed: seed, Clock: c.clock,
			Transport: countedTransport{Transport: c.net.TransportFor(u), rpcs: &c.rpcs},
			OnEvent: func(ev cluster.Event) {
				if ev.Type == cluster.EventCommit {
					if _, ok := c.commitAt[ev.Index]; !ok {
						c.commitAt[ev.Index] = c.clock.Now()
					}
				}
			},
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.fs = append(c.fs, fs)
		c.live = append(c.live, true)
		c.net.SetNode(u, node)
	}
	return c, nil
}

func (c *simCluster) close() {
	for i, n := range c.nodes {
		if c.live[i] {
			n.Kill()
		}
	}
}

func (c *simCluster) leader() int {
	best, bestTerm := -1, uint64(0)
	for i, n := range c.nodes {
		if c.live[i] && n.Role() == cluster.RoleLeader {
			if t := n.Term(); best < 0 || t > bestTerm {
				best, bestTerm = i, t
			}
		}
	}
	return best
}

// elect runs the clock until a node leads and its barrier is committed.
func (c *simCluster) elect() (int, error) {
	for waited := time.Duration(0); waited < waitLimit; waited += 10 * time.Millisecond {
		c.clock.RunFor(10 * time.Millisecond)
		if l := c.leader(); l >= 0 {
			if n := c.nodes[l]; n.LastIndex() > 0 && n.CommitIndex() >= n.LastIndex() {
				return l, nil
			}
		}
	}
	return -1, fmt.Errorf("no leader within %v of virtual time", waitLimit)
}

// commit proposes one write on node l and runs the clock until it is
// committed, returning the virtual latency.
func (c *simCluster) commit(l int, id string) (time.Duration, error) {
	t0 := c.clock.Now()
	idx, err := c.nodes[l].ProposeWrite(site, genPosts(0, id, 1)[0])
	if err != nil {
		return 0, err
	}
	for waited := time.Duration(0); c.nodes[l].CommitIndex() < idx; waited += time.Millisecond {
		if waited > waitLimit {
			return 0, fmt.Errorf("write %s not committed within %v of virtual time", id, waitLimit)
		}
		c.clock.RunFor(time.Millisecond)
	}
	return c.commitAt[idx].Sub(t0), nil
}

func (c *simCluster) fsTotals() fsCounts {
	var t fsCounts
	for _, fs := range c.fs {
		s := fs.snapshot()
		t.Syncs += s.Syncs
		t.Bytes += s.Bytes
	}
	return t
}

func probeCostModel(e *env, dir string, m *metrics) error {
	c, err := newSimCluster(filepath.Join(dir, "sim"), e.seed, false)
	if err != nil {
		return err
	}
	defer c.close()
	l, err := c.elect()
	if err != nil {
		return err
	}
	writes := e.count(20, 3)
	rpcs, fs := c.rpcs, c.fsTotals()
	var lat []time.Duration
	for i := 0; i < writes; i++ {
		d, err := c.commit(l, fmt.Sprintf("sim-%d", i))
		if err != nil {
			return err
		}
		lat = append(lat, d)
	}
	did := c.fsTotals().sub(fs)
	w := float64(writes)
	m.set("cluster.sim_rpcs_per_write", float64(c.rpcs-rpcs)/w, "count", writes)
	m.set("cluster.sim_fsyncs_per_write", float64(did.Syncs)/w, "count", writes)
	m.set("cluster.sim_journal_bytes_per_write", float64(did.Bytes)/w, "B", writes)
	m.set("cluster.sim_commit_vms_p50", p50(lat, ms), "ms", len(lat))

	reads := e.count(10, 2)
	rpcs = c.rpcs
	for i := 0; i < reads; i++ {
		ticket, err := c.nodes[l].StartRead(cluster.ReadQuorum)
		if err != nil {
			return err
		}
		for waited := time.Duration(0); ; waited += time.Millisecond {
			ready, err := ticket.Ready()
			if err != nil {
				return err
			}
			if ready {
				break
			}
			if waited > waitLimit {
				return fmt.Errorf("quorum read not confirmed within %v of virtual time", waitLimit)
			}
			c.clock.RunFor(time.Millisecond)
		}
	}
	m.set("cluster.sim_rpcs_per_quorum_read", float64(c.rpcs-rpcs)/float64(reads), "count", reads)

	// Failover in virtual time, one fresh cluster per seed: kill the
	// leader, then propose on whoever leads until a write commits.
	seeds := e.count(20, 2)
	var failover []time.Duration
	for s := 0; s < seeds; s++ {
		d, err := simFailover(filepath.Join(dir, fmt.Sprintf("failover-%d", s)), e.seed*1000+int64(s))
		if err != nil {
			return fmt.Errorf("failover seed %d: %w", s, err)
		}
		failover = append(failover, d)
	}
	m.set("cluster.sim_failover_vms_p50", p50(failover, ms), "ms", len(failover))
	return nil
}

func simFailover(dir string, seed int64) (time.Duration, error) {
	c, err := newSimCluster(dir, seed, true)
	if err != nil {
		return 0, err
	}
	defer c.close()
	l, err := c.elect()
	if err != nil {
		return 0, err
	}
	if _, err := c.commit(l, "before"); err != nil {
		return 0, err
	}
	c.nodes[l].Kill()
	c.live[l] = false
	c.net.KillNode(c.urls[l])
	killed := c.clock.Now()
	for try := 0; c.clock.Now().Sub(killed) < waitLimit; try++ {
		c.clock.RunFor(10 * time.Millisecond)
		if nl := c.leader(); nl >= 0 {
			if _, err := c.commit(nl, fmt.Sprintf("after-%d", try)); err == nil {
				return c.clock.Now().Sub(killed), nil
			}
		}
	}
	return 0, fmt.Errorf("no write committed within %v of the kill", waitLimit)
}
