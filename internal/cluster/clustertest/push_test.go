package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/service"
	"conprobe/internal/wal"
)

// countingTransport counts every RPC a node sends.
type countingTransport struct {
	cluster.Transport
	rpcs *int
}

func (t countingTransport) RequestVote(peer string, req cluster.VoteRequest, done func(cluster.VoteResponse, error)) {
	*t.rpcs++
	t.Transport.RequestVote(peer, req, done)
}

func (t countingTransport) Heartbeat(peer string, req cluster.HeartbeatRequest, done func(cluster.HeartbeatResponse, error)) {
	*t.rpcs++
	t.Transport.Heartbeat(peer, req, done)
}

func (t countingTransport) Pull(peer string, req cluster.PullRequest, done func(cluster.PullResponse, error)) {
	*t.rpcs++
	t.Transport.Pull(peer, req, done)
}

func (t countingTransport) FetchSnapshotChunk(peer string, req cluster.SnapshotChunkRequest, done func(cluster.SnapshotChunkResponse, error)) {
	*t.rpcs++
	t.Transport.FetchSnapshotChunk(peer, req, done)
}

// commitCost boots three nodes on a fresh virtual clock with a fixed
// one-way hop, the shipped election timeout and the given heartbeat and
// pull periods, elects a leader, and commits `writes` writes one at a
// time between heartbeat ticks. It returns the worst virtual latency
// from proposal to commit and the RPCs the cluster sent per write.
func commitCost(t *testing.T, hop, heartbeat, pull time.Duration, writes int) (time.Duration, float64) {
	t.Helper()
	clock := NewClock()
	net := NewNet(clock, 1, hop, hop)
	urls := []string{"node://n1", "node://n2", "node://n3"}
	nodes := make([]*cluster.Node, len(urls))
	rpcs := 0
	commitAt := make(map[uint64]time.Time)
	dir := t.TempDir()
	for i, u := range urls {
		var peers []string
		for _, p := range urls {
			if p != u {
				peers = append(peers, p)
			}
		}
		n, err := cluster.NewNode(&memSvc{}, cluster.Config{
			NodeID: fmt.Sprintf("n%d", i+1), SelfURL: u, Peers: peers,
			DataDir: filepath.Join(dir, fmt.Sprintf("n%d", i+1)), NoSync: true,
			HeartbeatInterval: heartbeat, PullInterval: pull,
			Seed: 1, Clock: clock,
			Transport: countingTransport{Transport: net.TransportFor(u), rpcs: &rpcs},
			OnEvent: func(ev cluster.Event) {
				if ev.Type == cluster.EventCommit {
					if _, ok := commitAt[ev.Index]; !ok {
						commitAt[ev.Index] = clock.Now()
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Kill)
		nodes[i] = n
		net.SetNode(u, n)
	}
	var leader *cluster.Node
	for waited := time.Duration(0); leader == nil; waited += 10 * time.Millisecond {
		if waited > 10*time.Second {
			t.Fatal("no leader with a committed barrier within 10s of virtual time")
		}
		clock.RunFor(10 * time.Millisecond)
		for _, n := range nodes {
			if n.Role() == cluster.RoleLeader && n.LastIndex() > 0 && n.CommitIndex() == n.LastIndex() {
				leader = n
			}
		}
	}
	// Sit just past a heartbeat tick, so the writes below — far less than
	// one period of work — fall between ticks and every RPC counted is the
	// commit's own. A tick is recognisable from outside: it is the only
	// thing that sends while nothing is proposed.
	for seen := rpcs; rpcs == seen; {
		clock.RunFor(time.Millisecond)
	}
	clock.RunFor(5 * hop)

	before := rpcs
	var worst time.Duration
	for i := 0; i < writes; i++ {
		t0 := clock.Now()
		idx, err := leader.ProposeWrite("harness", service.Post{ID: fmt.Sprintf("w%d", i), Author: "a", Body: "x"})
		if err != nil {
			t.Fatal(err)
		}
		for leader.CommitIndex() < idx {
			if clock.Now().Sub(t0) > time.Second {
				t.Fatalf("write %d not committed within 1s of virtual time", i)
			}
			clock.RunFor(hop)
		}
		worst = max(worst, commitAt[idx].Sub(t0))
		clock.RunFor(3 * hop) // let the slower follower's ack land too
	}
	return worst, float64(rpcs-before) / float64(writes)
}

// TestCommitCostExact is the replication path's cost, exact on the
// virtual clock and independent of bench/: with the shipped timers and
// 0.2 ms hops a committed write takes two hops — the append out, its
// reply back — and two RPCs, one per follower. No timer is on the path:
// doubling HeartbeatInterval and PullInterval changes neither figure.
func TestCommitCostExact(t *testing.T) {
	const hop = 200 * time.Microsecond
	const writes = 20
	lat, rpcs := commitCost(t, hop, 0, 0, writes) // 0: the shipped defaults
	t.Logf("commit cost: %.2f virtual ms and %.0f RPCs per commit (3 nodes, %v hops, shipped timers)",
		float64(lat)/float64(time.Millisecond), rpcs, hop)
	if lat > 2*hop+time.Millisecond {
		t.Errorf("a commit took %v of virtual time, want at most 2 hops + 1ms = %v", lat, 2*hop+time.Millisecond)
	}
	if rpcs != 2 {
		t.Errorf("%.2f RPCs per commit, want exactly 2", rpcs)
	}
	lat2, rpcs2 := commitCost(t, hop, 200*time.Millisecond, 500*time.Millisecond, writes)
	if lat2 != lat || rpcs2 != rpcs {
		t.Errorf("doubling HeartbeatInterval and PullInterval moved the commit cost: %v and %.2f RPCs, was %v and %.2f",
			lat2, rpcs2, lat, rpcs)
	}
}

// checkpointIndex reads the index id's oplog was last checkpointed at:
// its last commit record, or the head of the snapshot record it starts
// with when no commit record follows (a rewrite drops them). It moves
// exactly when the node checkpoints, every SnapshotEvery ops — a
// rewrite of the file is rare, so its head no longer tells.
func (c *Cluster) checkpointIndex(id string) uint64 {
	c.t.Helper()
	rep, err := wal.ReadFS(nil, filepath.Join(c.dir, id, "oplog.log"))
	if err != nil {
		c.fatalf("reading %s's oplog: %v", id, err)
	}
	at := uint64(0)
	for i, rec := range rep.Records {
		var head struct {
			LastIndex uint64 `json:"last_index"`
			Commit    uint64 `json:"commit"`
		}
		if i > 0 && !isCommitRecord(rec) {
			continue
		}
		if err := json.Unmarshal(rec, &head); err != nil {
			c.fatalf("decoding %s's record %d: %v", id, i, err)
		}
		at = max(at, head.LastIndex, head.Commit)
	}
	return at
}

// isCommitRecord reports whether rec, an oplog record after the
// snapshot record, is a commit record rather than an op.
func isCommitRecord(rec []byte) bool { return bytes.HasPrefix(rec, []byte(`{"commit":`)) }

// installs counts the snapshot installs id has reported.
func (c *Cluster) installs(id string) int {
	n := 0
	for _, line := range c.Transcript {
		if strings.Contains(line, " "+id+" "+cluster.EventInstallSnapshot+" ") {
			n++
		}
	}
	return n
}

// writeBurst proposes n writes at the leader, gap apart.
func (c *Cluster) writeBurst(n int, gap time.Duration) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		if c.TryWrite() == "" {
			c.fatalf("write refused: no leader")
		}
		c.RunFor(gap)
	}
}

// TestCompactionKeepsLaggingFollowerOffSnapshot pins the retained tail.
// A follower cut off for fewer than SnapshotEvery ops, while the leader
// checkpoints, finds the entries it lacks still in the leader's memory and
// catches up by appends alone; cut off for longer than the bound, it
// installs a snapshot as it always did. Both partitions are shorter
// than the election timeout, so leadership never moves.
func TestCompactionKeepsLaggingFollowerOffSnapshot(t *testing.T) {
	c := New(t, 11, 3)
	c.RunFor(2 * electionTimeout)
	leader := c.Leader()
	if leader == "" {
		c.fatalf("no leader")
	}
	var lagger string
	for _, id := range c.IDs {
		if id != leader {
			lagger = id
			break
		}
	}
	caughtUp := func(what string) {
		c.t.Helper()
		c.RunFor(time.Second)
		if c.Leader() != leader {
			c.fatalf("%s: leadership moved from %s to %q", what, leader, c.Leader())
		}
		if got, want := c.nodes[lagger].LastIndex(), c.nodes[leader].LastIndex(); got != want {
			c.fatalf("%s: %s at %d, leader at %d", what, lagger, got, want)
		}
	}
	// Write until the leader has just checkpointed, so where the next
	// checkpoint falls is known: snapshotEvery ops from here.
	for at := c.checkpointIndex(leader); c.checkpointIndex(leader) == at; {
		c.writeBurst(1, 100*time.Millisecond)
	}
	c.writeBurst(3, 100*time.Millisecond)
	caughtUp("before the partition")

	// Six ops behind, the leader checkpointing at the fifth of them.
	installs, checkpointedAt := c.installs(lagger), c.checkpointIndex(leader)
	c.Isolate(lagger)
	c.writeBurst(snapshotEvery-2, 30*time.Millisecond)
	if c.checkpointIndex(leader) == checkpointedAt {
		c.fatalf("the leader did not checkpoint while %s was cut off", lagger)
	}
	c.Heal()
	caughtUp("after a short partition")
	if got := c.installs(lagger); got != installs {
		c.fatalf("%s installed %d snapshots to cover %d ops; the leader should have kept them",
			lagger, got-installs, snapshotEvery-2)
	}

	// Well past the bound: two checkpoints' worth of ops.
	c.Isolate(lagger)
	c.writeBurst(3*snapshotEvery, 10*time.Millisecond)
	c.Heal()
	caughtUp("after a long partition")
	if got := c.installs(lagger); got == installs {
		c.fatalf("%s caught up over %d ops without a snapshot: the retained tail is not bounded by SnapshotEvery=%d",
			lagger, 3*snapshotEvery, snapshotEvery)
	}
	c.AssertConverged()
}

// TestAppendDeliveryIsIdempotent turns the fabric's misbehaviour far up
// — a third of all requests handled twice, a third of all messages held
// back past later traffic — and requires that appends still never leave
// a gap and never apply an entry twice: every replica ends with the
// leader's posts, each exactly once, in the leader's order. The harness
// service does not deduplicate, so a double apply would show.
func TestAppendDeliveryIsIdempotent(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d/size=%d", seed, clusterSize(seed)), func(t *testing.T) {
			t.Parallel()
			c := New(t, seed, clusterSize(seed))
			c.Net.EnableDeliveryChaos(3300, 3300)
			c.RunFor(2 * electionTimeout)
			for i := 0; i < 60; i++ {
				c.TryWrite()
				c.RunFor(time.Duration(1+i%7) * 5 * time.Millisecond)
				c.AssertLogMatching()
			}
			c.AssertConverged()
			if len(c.Acked) < 50 {
				c.fatalf("only %d of 60 writes were acknowledged", len(c.Acked))
			}
			want := postIDs(c, c.Leader())
			seen := make(map[string]bool, len(want))
			for _, id := range want {
				if seen[id] {
					c.fatalf("leader applied %s twice", id)
				}
				seen[id] = true
			}
			for _, id := range c.IDs {
				if got := postIDs(c, id); strings.Join(got, ",") != strings.Join(want, ",") {
					c.fatalf("%s holds %v, leader holds %v", id, got, want)
				}
			}
		})
	}
}

func postIDs(c *Cluster, id string) []string {
	c.t.Helper()
	posts, err := c.nodes[id].Read("harness", "checker")
	if err != nil {
		c.fatalf("reading %s: %v", id, err)
	}
	ids := make([]string, len(posts))
	for i, p := range posts {
		ids[i] = p.ID
	}
	return ids
}

// oplogRecords reads id's oplog as records by index: the op records and
// the elements of the snapshot record's state; snap is the snapshot
// record itself and snapIndex its head.
func (c *Cluster) oplogRecords(id string) (recs map[uint64][]byte, snap []byte, snapIndex uint64) {
	c.t.Helper()
	rep, err := wal.ReadFS(nil, filepath.Join(c.dir, id, "oplog.log"))
	if err != nil || len(rep.Records) == 0 {
		c.fatalf("reading %s's oplog: %d records, %v", id, len(rep.Records), err)
	}
	var head struct {
		LastIndex uint64            `json:"last_index"`
		State     []json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(rep.Records[0], &head); err != nil {
		c.fatalf("decoding %s's snapshot record: %v", id, err)
	}
	recs = make(map[uint64][]byte)
	for _, rec := range append(head.State, toRaw(rep.Records[1:])...) {
		if isCommitRecord(rec) {
			continue // the node's own, never sent: nothing to compare
		}
		var op cluster.Op
		if err := json.Unmarshal(rec, &op); err != nil {
			c.fatalf("decoding a record of %s's oplog: %v", id, err)
		}
		recs[op.Index] = rec
	}
	return recs, rep.Records[0], head.LastIndex
}

func toRaw(recs [][]byte) []json.RawMessage {
	raw := make([]json.RawMessage, len(recs))
	for i, rec := range recs {
		raw[i] = rec
	}
	return raw
}

// TestFollowersJournalTheLeadersBytes drives a cluster through each way
// an op reaches a node's oplog — appends carrying a write whose body
// needs escaping, the two entries of a reconfiguration, a new leader's
// election barrier, a restart, a snapshot install to a follower cut off
// for longer than the leader retains, and checkpoints throughout — and
// after each requires every two live nodes' oplogs to hold the same
// bytes at every index both hold, in op records and in the snapshot
// record's state, and the same snapshot record where their heads agree.
// Commit records are each node's own and are not compared.
// An op is encoded once, by the leader that creates it; every other
// node journals the bytes it was sent.
func TestFollowersJournalTheLeadersBytes(t *testing.T) {
	c := New(t, 5, 3)
	c.RunFor(2 * electionTimeout)
	compared := make(map[string]bool) // kinds of records found equal on two nodes
	check := func(phase string) {
		c.t.Helper()
		c.RunFor(time.Second)
		for i, a := range c.IDs {
			if !c.live[a] {
				continue
			}
			recsA, snapA, headA := c.oplogRecords(a)
			for _, b := range c.IDs[i+1:] {
				if !c.live[b] {
					continue
				}
				recsB, snapB, headB := c.oplogRecords(b)
				for idx, rec := range recsA {
					other, ok := recsB[idx]
					if !ok {
						continue
					}
					if !bytes.Equal(rec, other) {
						c.fatalf("%s: index %d is\n%s on %s and\n%s on %s", phase, idx, rec, a, other, b)
					}
					var op cluster.Op
					_ = json.Unmarshal(rec, &op)
					compared[op.Kind] = true
					compared["escaped"] = compared["escaped"] || bytes.Contains(rec, []byte(`café \u003cb\u003e\"x\"`))
				}
				if headA == headB {
					if !bytes.Equal(snapA, snapB) {
						c.fatalf("%s: the snapshot records at %d differ:\n%s on %s\n%s on %s", phase, headA, snapA, a, snapB, b)
					}
					compared["snapshot"] = true
				}
			}
		}
	}
	gap := 50 * time.Millisecond
	write := func(body string) {
		c.t.Helper()
		c.writeSeq++
		id := fmt.Sprintf("w%d", c.writeSeq)
		if _, err := c.nodes[c.Leader()].ProposeWrite("harness", service.Post{ID: id, Author: "a", Body: body}); err != nil {
			c.fatalf("write %s: %v", id, err)
		}
		c.RunFor(gap)
	}

	for i := 0; i < 5; i++ {
		write(fmt.Sprintf("plain %d", i))
	}
	write("café <b>\"x\"")
	write("tab\tand\\backslash")
	check("appends")

	leader := c.Leader()
	for at := c.checkpointIndex(leader); c.checkpointIndex(leader) == at; {
		write("until the leader checkpoints")
	}
	c.AddJoiner("n4")
	c.RunFor(time.Second)
	settleReconfigure(c, []cluster.Member{{ID: "n4", URL: "node://n4"}}, nil, 4)
	c.MarkAdmitted("n4")
	check("reconfigure")

	c.Kill(leader)
	c.RunFor(2 * time.Second)
	if c.Leader() == "" || c.Leader() == leader {
		c.fatalf("no new leader after %s was killed", leader)
	}
	write("after the election")
	check("barrier")

	c.Restart(leader)
	write("after the restart")
	check("restart")

	var lagger string
	for _, id := range c.IDs {
		if id != c.Leader() && c.live[id] {
			lagger = id
			break
		}
	}
	installs := c.installs(lagger)
	c.Isolate(lagger)
	gap = 10 * time.Millisecond // back before its election timeout
	for i := 0; i < 3*snapshotEvery; i++ {
		write(fmt.Sprintf("while %s is away <%d>", lagger, i))
	}
	c.Heal()
	check("install")
	if c.installs(lagger) == installs {
		c.fatalf("%s caught up without a snapshot install", lagger)
	}
	for _, kind := range []string{"write", "config", "noop", "escaped", "snapshot"} {
		if !compared[kind] {
			c.fatalf("no %s record was held by two nodes to compare", kind)
		}
	}
	c.AssertConverged()
}

// TestMemberPastTheFloorInstallsOnce: a member kept away while the leader
// compacts past its head is sent a snapshot-flagged append on its
// return, installs the leader's snapshot exactly once — the flagged
// appends sent while it fetched, duplicated and reordered by the
// fabric, start no second transfer — and then continues by appends
// alone. It never pulls.
func TestMemberPastTheFloorInstallsOnce(t *testing.T) {
	c := New(t, 13, 3)
	c.RunFor(2 * electionTimeout)
	leader := c.Leader()
	if leader == "" {
		c.fatalf("no leader")
	}
	var lagger string
	for _, id := range c.IDs {
		if id != leader {
			lagger = id
			break
		}
	}
	c.writeBurst(3, 50*time.Millisecond)
	c.RunFor(time.Second)
	installs := c.installs(lagger)
	c.Isolate(lagger)
	c.writeBurst(3*snapshotEvery, 10*time.Millisecond) // back before its election timeout
	c.Heal()
	c.RunFor(time.Second)
	if c.Leader() != leader {
		c.fatalf("leadership moved from %s to %q", leader, c.Leader())
	}
	if got, want := c.nodes[lagger].LastIndex(), c.nodes[leader].LastIndex(); got != want {
		c.fatalf("%s at %d, leader at %d", lagger, got, want)
	}
	if got := c.installs(lagger) - installs; got != 1 {
		c.fatalf("%s installed %d snapshots to come back past the leader's floor, want exactly 1", lagger, got)
	}
	c.writeBurst(snapshotEvery, 50*time.Millisecond)
	c.RunFor(time.Second)
	if got, want := c.nodes[lagger].LastIndex(), c.nodes[leader].LastIndex(); got != want {
		c.fatalf("after the install, %s at %d, leader at %d", lagger, got, want)
	}
	if got := c.installs(lagger) - installs; got != 1 {
		c.fatalf("%s installed %d snapshots, want the one: it is level and continues by appends", lagger, got)
	}
	c.AssertConverged()
	assertMembersNeverPulled(c)
}

// TestRestartedMemberCaughtUpWithinAHop: a member restarted behind the
// head its leader was elected on — the position the leader's first
// append to it starts from — answers that append with its own head, and
// the leader sends the entries from there the moment the reply lands.
// On fixed 1 ms hops the member is level two hops after it first hears
// from the leader: its reply out, the entries back. Not at the next
// HeartbeatInterval tick, and not by a pull.
func TestRestartedMemberCaughtUpWithinAHop(t *testing.T) {
	const hop = time.Millisecond
	c := New(t, 17, 5)
	c.Net.EnableDeliveryChaos(0, 0)
	c.Net.minDelay, c.Net.maxDelay = hop, hop
	c.RunFor(2 * electionTimeout)
	first := c.Leader()
	if first == "" {
		c.fatalf("no leader")
	}
	var lagger string
	for _, id := range c.IDs {
		if id != first {
			lagger = id
			break
		}
	}
	c.Kill(lagger)
	c.writeBurst(3, 20*time.Millisecond)
	// A new leader, elected on a head past the lagger's: its first guess
	// at where the lagger stands is its own head.
	c.Kill(first)
	deadline := c.Clock.Now().Add(10 * time.Second)
	for c.Leader() == "" || c.nodes[c.Leader()].CommitIndex() != c.nodes[c.Leader()].LastIndex() {
		if c.Clock.Now().After(deadline) {
			c.fatalf("no leader with a committed barrier after %s was killed", first)
		}
		c.RunFor(10 * time.Millisecond)
	}
	leader := c.Leader()
	behind := c.nodes[leader].LastIndex()
	c.Restart(lagger)
	lag := c.nodes[lagger]
	if got := lag.LastIndex(); got >= behind {
		c.fatalf("%s restarted at %d, not behind the leader's %d", lagger, got, behind)
	}
	for lag.Status().LeaderID == "" {
		if c.Clock.Now().After(deadline) {
			c.fatalf("%s never heard from %s", lagger, leader)
		}
		c.RunFor(hop / 10)
	}
	heard := c.Clock.Now()
	for lag.LastIndex() < behind {
		if c.Clock.Now().Sub(heard) > 2*hop {
			c.fatalf("%s at %d, leader at %d, %v after its first append: the catch-up waited for a timer",
				lagger, lag.LastIndex(), behind, c.Clock.Now().Sub(heard))
		}
		c.RunFor(hop / 10)
	}
	assertMembersNeverPulled(c)
	c.AssertConverged()
}
