package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQuorumSizeTable pins the write-quorum arithmetic: the operator's
// -quorum override can only ever RAISE the ack requirement above a
// majority (a minority quorum doesn't overlap with elections and would
// let a deposed leader ack writes the new leader never saw), and it is
// capped at the member count so a shrink below an old override cannot
// wedge the cluster.
func TestQuorumSizeTable(t *testing.T) {
	cases := []struct {
		n, override, want int
	}{
		{1, 0, 1}, {1, 1, 1}, {1, 5, 1},
		{2, 0, 2}, {2, 1, 2}, {2, 2, 2}, {2, 3, 2},
		{3, 0, 2}, {3, 1, 2}, {3, 2, 2}, {3, 3, 3}, {3, 4, 3},
		// The headline bug: 4 nodes need 3 acks no matter how low the
		// override goes — 2 of 4 is not a majority, and 1 never was.
		{4, 0, 3}, {4, 1, 3}, {4, 2, 3}, {4, 3, 3}, {4, 4, 4}, {4, 5, 4},
		{5, 0, 3}, {5, 1, 3}, {5, 4, 4}, {5, 5, 5}, {5, 9, 5},
		{6, 0, 4}, {6, 5, 5}, {6, 7, 6},
		{7, 0, 4}, {7, 1, 4}, {7, 6, 6}, {7, 7, 7}, {7, 8, 7},
	}
	for _, c := range cases {
		if got := quorumSize(c.n, c.override); got != c.want {
			t.Errorf("quorumSize(n=%d, override=%d) = %d, want %d", c.n, c.override, got, c.want)
		}
	}
}

func members(urls ...string) []Member {
	out := make([]Member, len(urls))
	for i, u := range urls {
		out[i] = Member{URL: u}
	}
	return out
}

func ackedSet(urls ...string) func(string) bool {
	set := make(map[string]bool, len(urls))
	for _, u := range urls {
		set[u] = true
	}
	return func(u string) bool { return set[u] }
}

// TestJointQuorumsNeedBothMajorities pins the joint-consensus rule: a
// config in transition commits (and elects) only with a majority of the
// OLD membership and a majority of the NEW one. Either set alone is how
// the classic single-step reconfiguration bug manufactures two disjoint
// quorums.
func TestJointQuorumsNeedBothMajorities(t *testing.T) {
	joint := Membership{
		Old: members("a", "b", "c"),
		New: members("a", "b", "c", "d", "e"),
	}
	cases := []struct {
		acked []string
		want  bool
	}{
		{[]string{"a", "b", "d"}, true},           // 2/3 old, 3/5 new
		{[]string{"c", "d", "e"}, false},          // new majority alone
		{[]string{"a", "b", "c"}, true},           // old set covers both majorities
		{[]string{"a", "d", "e"}, false},          // 1/3 old
		{[]string{"d", "e"}, false},               // nobody from old
		{[]string{"a", "b", "c", "d", "e"}, true}, // everyone
	}
	for _, c := range cases {
		acked := ackedSet(c.acked...)
		if got := joint.WriteSatisfied(0, acked); got != c.want {
			t.Errorf("WriteSatisfied(%v) = %t, want %t", c.acked, got, c.want)
		}
		if got := joint.VoteSatisfied(acked); got != c.want {
			t.Errorf("VoteSatisfied(%v) = %t, want %t", c.acked, got, c.want)
		}
	}
	// The write override applies to both sides of a joint config; votes
	// ignore it entirely (majority overlap is all elections need).
	all := ackedSet("a", "b", "d", "e")
	if joint.WriteSatisfied(4, all) {
		t.Error("override 4 satisfied with 2/3 of the old set at override level")
	}
	if !joint.VoteSatisfied(all) {
		t.Error("vote quorum must ignore the write override")
	}
}

// configSweepNode is a two-member cluster leader ("n1" plus peer n2)
// whose timers are parked an hour out and whose transport only records
// RPCs; the test plays the n2 side by hand via onHeartbeatResponse.
func configSweepNode(t *testing.T, dir string) *Node {
	t.Helper()
	n, err := NewNode(&memSvc{}, Config{
		NodeID:            "n1",
		SelfURL:           "http://n1",
		Peers:             []string{"http://n2"},
		Role:              RoleLeader,
		DataDir:           dir,
		PullInterval:      time.Hour,
		ElectionTimeout:   time.Hour,
		HeartbeatInterval: time.Hour,
		SnapshotEvery:     1 << 20,
		NoSync:            true,
		Transport:         &captureTransport{},
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

// ackHead simulates peer `url` reporting a durable log identical to the
// leader's head, which is how commit advances in a 2-member cluster.
func ackHead(n *Node, url, id string) {
	n.mu.Lock()
	term, gen := n.currentTerm, n.campaignGen
	idx, lt := n.lastIndex, n.lastTerm
	n.mu.Unlock()
	n.onHeartbeatResponse(term, gen, HeartbeatResponse{
		Term: term, Node: id, URL: url, LastIndex: idx, LastTerm: lt,
	}, nil)
}

// standaloneLeader bootstraps a peerless single-member leader whose
// timers are parked an hour out and whose transport only records RPCs.
func standaloneLeader(t *testing.T) (*Node, *captureTransport) {
	t.Helper()
	tr := &captureTransport{}
	n, err := NewNode(&memSvc{}, Config{
		NodeID:            "g",
		SelfURL:           "http://g",
		Role:              RoleLeader,
		DataDir:           t.TempDir(),
		PullInterval:      time.Hour,
		ElectionTimeout:   time.Hour,
		HeartbeatInterval: time.Hour,
		NoSync:            true,
		Transport:         tr,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(n.Kill)
	return n, tr
}

// TestReconfigureStartsAndStopsHeartbeats: a leader whose peer set goes
// from empty to non-empty through a configuration entry (not an
// election) must start heartbeating — otherwise the joiner's election
// timer deposes it after one ElectionTimeout and leader reads 503 until
// a quorum read happens to kick a round — and a leader that shrinks back
// to standalone must drop the timer so a later grow can re-arm it.
func TestReconfigureStartsAndStopsHeartbeats(t *testing.T) {
	n, tr := standaloneLeader(t)

	// Grow 1→2: the bootstrap leader gains its first peer.
	if _, err := n.Reconfigure([]Member{{ID: "a", URL: "http://a"}}, nil); err != nil {
		t.Fatalf("grow: %v", err)
	}
	hbs := tr.waitHBs(t, 1)
	if hbs[0].peer != "http://a" {
		t.Fatalf("heartbeat went to %s, want http://a", hbs[0].peer)
	}
	// a acks the joint entry (commits under both quorums, appending
	// C(new)), then the C(new) entry itself.
	ackHead(n, "http://a", "a")
	ackHead(n, "http://a", "a")
	if !n.ConfigSettled() {
		t.Fatal("grow did not settle after the peer acked both config entries")
	}

	// Shrink 2→1: adopting the final single-member config leaves nobody
	// to heartbeat; the timer must stop rather than tick into the void.
	if _, err := n.Reconfigure(nil, []string{"http://a"}); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	ackHead(n, "http://a", "a") // the joint entry still needs the old quorum
	if !n.ConfigSettled() {
		t.Fatal("shrink did not settle after the departing peer acked the joint entry")
	}
	n.mu.Lock()
	hb := n.heartbeatTimer
	n.mu.Unlock()
	if hb != nil {
		t.Fatal("heartbeat timer still armed after shrinking to a standalone leader")
	}

	// Grow again: the stale handle from the shrink must not block
	// re-arming.
	tr.takeHBs()
	if _, err := n.Reconfigure([]Member{{ID: "b", URL: "http://b"}}, nil); err != nil {
		t.Fatalf("regrow: %v", err)
	}
	tr.waitHBs(t, 1)
}

// TestConcurrentReconfigureSingleWinner races two membership changes on
// a settled leader: exactly one may append a joint entry. When
// validation and staging did not share a critical section, both calls
// could pass the no-change-in-flight check against the same snapshot
// and both append — the second superseding the first on adoption while
// the first caller's WaitReconfigured still reported success.
func TestConcurrentReconfigureSingleWinner(t *testing.T) {
	for round := 0; round < 10; round++ {
		n, _ := standaloneLeader(t)
		var wg sync.WaitGroup
		var wins atomic.Int32
		for _, m := range []Member{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}} {
			m := m
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := n.Reconfigure([]Member{m}, nil); err == nil {
					wins.Add(1)
				}
			}()
		}
		wg.Wait()
		if got := wins.Load(); got != 1 {
			t.Fatalf("round %d: %d concurrent reconfigurations succeeded, want exactly 1", round, got)
		}
		if m := n.Membership(); !m.Joint() || len(m.Old) != 1 || len(m.New) != 2 {
			t.Fatalf("round %d: post-race config %s, want joint(1+2)", round, m.describe())
		}
		n.Kill()
	}
}
