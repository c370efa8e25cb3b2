package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// memSvc is a minimal in-memory service.Service: no simulated network
// delays, so replication tests run at full speed.
type memSvc struct {
	mu    sync.Mutex
	posts []service.Post
}

func (m *memSvc) Name() string { return "mem" }

func (m *memSvc) Write(from simnet.Site, p service.Post) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, q := range m.posts {
		if q.ID == p.ID {
			return nil // idempotent
		}
	}
	m.posts = append(m.posts, p)
	return nil
}

func (m *memSvc) Read(from simnet.Site, reader string) ([]service.Post, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]service.Post(nil), m.posts...), nil
}

func (m *memSvc) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posts = nil
	return nil
}

// newLeader starts a standalone (peerless) leader node with an httptest
// server exposing its replication endpoints.
func newLeader(t *testing.T, dir string, snapEvery int) (*Node, *httptest.Server) {
	t.Helper()
	n, err := NewNode(&memSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: dir, SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	t.Cleanup(ts.Close)
	return n, ts
}

// newFollower starts a legacy pure-pull follower replicating leaderURL.
func newFollower(t *testing.T, id, dir, leaderURL string, interval time.Duration) *Node {
	t.Helper()
	n, err := NewNode(&memSvc{}, Config{
		NodeID: id, Role: RoleFollower, LeaderURL: leaderURL,
		DataDir: dir, PullInterval: interval, SnapshotEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func writeOps(t *testing.T, n *Node, base, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		p := service.Post{ID: fmt.Sprintf("m%d", base+i), Author: "a1", Body: "x"}
		if err := n.Write(simnet.DCWest, p); err != nil {
			t.Fatalf("write %s: %v", p.ID, err)
		}
	}
}

func ids(t *testing.T, n *Node) []string {
	t.Helper()
	posts, err := n.Read(simnet.DCWest, "r")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(posts))
	for i, p := range posts {
		out[i] = p.ID
	}
	return out
}

// waitIndex polls until n has applied index want (or the deadline).
func waitIndex(t *testing.T, n *Node, want uint64) {
	t.Helper()
	applied := func() uint64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.applied
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if applied() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %s stuck at applied index %d, want %d", n.cfg.NodeID, applied(), want)
}

func TestFollowerReplicatesAndReportsLag(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 1<<20)
	defer leader.Close()
	writeOps(t, leader, 0, 5)

	f := newFollower(t, "n2", t.TempDir(), ts.URL, 5*time.Millisecond)
	defer f.Close()
	waitIndex(t, f, 5)

	want := ids(t, leader)
	if got := ids(t, f); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower replica = %v, want %v", got, want)
	}
	if st := leader.Status(); st.Role != RoleLeader || st.LastIndex != 5 {
		t.Fatalf("leader status = %+v", st)
	}
	// The leader learns a follower's progress from its *next* pull, so
	// lag reaches 0 one pull after the batch was applied.
	deadline := time.Now().Add(10 * time.Second)
	for {
		caughtUp := false
		for _, fo := range leader.Status().Followers {
			if fo.Node == "n2" && fo.Lag == 0 {
				caughtUp = true
			}
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never reported n2 caught up: %+v", leader.Status().Followers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFollowerRejectsWritesWithLeaderHint(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 1<<20)
	defer leader.Close()
	f := newFollower(t, "n2", t.TempDir(), ts.URL, time.Hour)
	defer f.Close()

	err := f.Write(simnet.DCWest, service.Post{ID: "m1"})
	var nle *NotLeaderError
	if !errors.As(err, &nle) {
		t.Fatalf("got %v, want *NotLeaderError", err)
	}
	if nle.LeaderHint() != ts.URL {
		t.Fatalf("leader hint = %q, want %q", nle.LeaderHint(), ts.URL)
	}
}

func TestLeaderRestartRecoversAckedWrites(t *testing.T) {
	dir := t.TempDir()
	leader, ts := newLeader(t, dir, 4) // compaction exercised mid-stream
	writeOps(t, leader, 0, 10)
	if err := leader.Reset(); err != nil {
		t.Fatal(err)
	}
	writeOps(t, leader, 100, 3)
	want := ids(t, leader)
	ts.Close()
	leader.Kill() // crash: no final compaction (the WAL was fsynced per accept)

	leader2, _ := newLeader(t, dir, 4)
	defer leader2.Close()
	if got := ids(t, leader2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered replica = %v, want %v", got, want)
	}
	if leader2.LastIndex() != 14 {
		t.Fatalf("recovered index = %d, want 14", leader2.LastIndex())
	}
	// Indexes must continue, not collide.
	writeOps(t, leader2, 200, 1)
	if leader2.LastIndex() != 15 {
		t.Fatalf("post-recovery index = %d, want 15", leader2.LastIndex())
	}
}

// countSvc is a memSvc that counts the writes reaching it.
type countSvc struct {
	memSvc
	writes atomic.Int64
}

func (c *countSvc) Write(from simnet.Site, p service.Post) error {
	c.writes.Add(1)
	return c.memSvc.Write(from, p)
}

// TestRestartAfterResetReplaysOnlyPostResetWrites checks that a reset
// bounds what a restart rebuilds: applying the reset compacts away a
// snapshot record holding SnapshotEvery writes or more, so a node that
// ends up holding one post does not re-apply the hundred the reset
// cleared.
func TestRestartAfterResetReplaysOnlyPostResetWrites(t *testing.T) {
	cfg := Config{NodeID: "n1", Role: RoleLeader, DataDir: t.TempDir(), SnapshotEvery: 8}
	n, err := NewNode(&memSvc{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeOps(t, n, 0, 100)
	if err := n.Reset(); err != nil {
		t.Fatal(err)
	}
	writeOps(t, n, 100, 1)
	last := n.LastIndex()
	n.Kill()

	svc := &countSvc{}
	n2, err := NewNode(svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	waitIndex(t, n2, last)
	if got := ids(t, n2); fmt.Sprint(got) != "[m100]" {
		t.Fatalf("recovered replica = %v, want [m100]", got)
	}
	if w := svc.writes.Load(); w > int64(cfg.SnapshotEvery) {
		t.Fatalf("recovery applied %d writes for a replica holding one post, want at most %d", w, cfg.SnapshotEvery)
	}
}

func TestFollowerCatchUpFromSnapshot(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 4)
	defer leader.Close()
	// 10 writes with SnapshotEvery=4: the floor has moved past 0, so a
	// brand-new follower must go through snapshot install.
	writeOps(t, leader, 0, 10)

	f := newFollower(t, "n2", t.TempDir(), ts.URL, 5*time.Millisecond)
	defer f.Close()
	waitIndex(t, f, 10)
	if got, want := ids(t, f), ids(t, leader); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower after snapshot install = %v, want %v", got, want)
	}
	// And it keeps streaming after the install.
	writeOps(t, leader, 100, 2)
	waitIndex(t, f, 12)
	if got, want := ids(t, f), ids(t, leader); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower after post-install stream = %v, want %v", got, want)
	}
}

// TestPullAnswerIsBounded: a pull is answered with the append the leader
// would push, bounded as every append is, never the whole tail in one
// reply. A fresh pure-pull follower of a leader holding 20 writes of
// 900 KiB — 18 MiB in all, past the 16 MiB an RPC body may hold — reaches
// the leader's head an append at a time.
func TestPullAnswerIsBounded(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 1<<20)
	defer leader.Close()
	body := strings.Repeat("x", 900<<10)
	for i := 0; i < 20; i++ {
		if err := leader.Write(simnet.DCWest, service.Post{ID: fmt.Sprintf("big%d", i), Author: "a1", Body: body}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	f := newFollower(t, "n2", t.TempDir(), ts.URL, 5*time.Millisecond)
	defer f.Close()
	waitIndex(t, f, 20)
	if got, want := ids(t, f), ids(t, leader); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower replica = %v, want %v", got, want)
	}
}

// TestLeaderKillSurvivorRebootConvergence is the legacy (static, no
// peers) failover drill: kill the leader, reboot the surviving follower
// from its data dir as a standalone leader — the config-level admin
// action that replaced the old promote RPC in pull-only deployments —
// write through it, then restart the old leader as its follower and
// check both replicas converge with no acked write lost.
func TestLeaderKillSurvivorRebootConvergence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	leader, ts := newLeader(t, dirA, 1<<20)
	f := newFollower(t, "n2", dirB, ts.URL, 5*time.Millisecond)
	writeOps(t, leader, 0, 6)
	waitIndex(t, f, 6)

	// Kill both the leader and the follower process; reboot the follower
	// from its recovered state as the new leader.
	ts.Close()
	leader.Kill()
	f.Kill()
	promoted, err := NewNode(&memSvc{}, Config{NodeID: "n2", Role: RoleLeader, DataDir: dirB})
	if err != nil {
		t.Fatal(err)
	}
	defer promoted.Close()
	if promoted.LastIndex() != 6 {
		t.Fatalf("promoted survivor recovered index %d, want 6", promoted.LastIndex())
	}
	fts := httptest.NewServer(promoted.Handler())
	defer fts.Close()
	writeOps(t, promoted, 100, 4)
	if promoted.LastIndex() != 10 {
		t.Fatalf("new leader index = %d, want 10", promoted.LastIndex())
	}

	// Old leader restarts, recovers its acked writes locally, and
	// rejoins as a follower of the new leader.
	rejoined, err := NewNode(&memSvc{}, Config{
		NodeID: "n1", Role: RoleFollower, LeaderURL: fts.URL,
		DataDir: dirA, PullInterval: 5 * time.Millisecond, SnapshotEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	if rejoined.LastIndex() != 6 {
		t.Fatalf("rejoined node recovered index %d, want 6", rejoined.LastIndex())
	}
	waitIndex(t, rejoined, 10)
	if got, want := ids(t, rejoined), ids(t, promoted); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rejoined replica = %v, new leader = %v", got, want)
	}
}

// electionCluster boots n HTTP nodes that know each other as peers and
// must elect a leader on their own (every node starts a follower). The
// node URLs must be known before the nodes exist, so handlers bind
// late.
type lateHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.h = h
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func electionCluster(t *testing.T, size int) ([]*Node, []*httptest.Server) {
	t.Helper()
	handlers := make([]*lateHandler, size)
	servers := make([]*httptest.Server, size)
	urls := make([]string, size)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		servers[i] = httptest.NewServer(handlers[i])
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
	}
	nodes := make([]*Node, size)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		n, err := NewNode(&memSvc{}, Config{
			NodeID:  fmt.Sprintf("n%d", i+1),
			SelfURL: urls[i], Peers: peers,
			DataDir:           t.TempDir(),
			PullInterval:      5 * time.Millisecond,
			ElectionTimeout:   75 * time.Millisecond,
			HeartbeatInterval: 15 * time.Millisecond,
			Seed:              42 + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		handlers[i].set(n.Handler())
		nodes[i] = n
		t.Cleanup(func() { n.Kill() })
	}
	return nodes, servers
}

// waitLeader polls until exactly one live node leads, returning its
// slot.
func waitLeader(t *testing.T, nodes []*Node, dead map[int]bool) int {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		leader := -1
		for i, n := range nodes {
			if dead[i] || n == nil {
				continue
			}
			if n.Role() == RoleLeader {
				leader = i
			}
		}
		if leader >= 0 {
			return leader
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected before deadline")
	return -1
}

// TestElectionOverHTTP wires three real nodes over real HTTP: they must
// elect a leader unaided, quorum-ack writes, survive a leader kill -9
// with an automatic re-election, and lose none of the acked writes.
func TestElectionOverHTTP(t *testing.T) {
	nodes, servers := electionCluster(t, 3)
	dead := map[int]bool{}

	li := waitLeader(t, nodes, dead)
	writeOps(t, nodes[li], 0, 5) // each write blocks until quorum-fsynced
	acked := ids(t, nodes[li])

	// Kill the leader: stop its HTTP server and crash the node.
	servers[li].CloseClientConnections()
	servers[li].Close()
	nodes[li].Kill()
	dead[li] = true

	li2 := waitLeader(t, nodes, dead)
	if li2 == li {
		t.Fatalf("dead node %d still leads", li)
	}
	// The new leader must hold every quorum-acked write (its election
	// required a log at least as up to date as a quorum member's), and a
	// quorum read there returns them: it waits for the leader's barrier
	// to commit, which applies everything inherited.
	posts, _, err := nodes[li2].ReadLinearizable(simnet.DCWest, "r", ReadQuorum)
	if err != nil {
		t.Fatalf("quorum read at the new leader: %v", err)
	}
	got := make([]string, len(posts))
	for i, p := range posts {
		got[i] = p.ID
	}
	if fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Fatalf("acked writes lost in failover: new leader has %v, acked %v", got, acked)
	}
	writeOps(t, nodes[li2], 100, 3)

	// The surviving follower converges on the full post-failover history.
	fi := -1
	for i := range nodes {
		if !dead[i] && i != li2 {
			fi = i
		}
	}
	waitIndex(t, nodes[fi], nodes[li2].LastIndex())
	if got, want := ids(t, nodes[fi]), ids(t, nodes[li2]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("follower diverged after failover: %v vs %v", got, want)
	}
	if nodes[fi].Term() != nodes[li2].Term() {
		t.Fatalf("terms diverged: follower %d, leader %d", nodes[fi].Term(), nodes[li2].Term())
	}
}

func TestStatusEndpointShape(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 1<<20)
	defer leader.Close()
	resp, err := http.Get(ts.URL + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint returned %d", resp.StatusCode)
	}
}

func TestNodeValidation(t *testing.T) {
	svc := &memSvc{}
	cases := []Config{
		{NodeID: "x", Role: "emperor"},
		{NodeID: "x", Role: RoleFollower},          // no leader URL, no peers
		{Role: RoleLeader},                         // no node ID
		{NodeID: "x", Peers: []string{"http://p"}}, // peers without self URL
		{NodeID: "x", Role: RoleLeader, Quorum: 5}, // quorum beyond cluster size
	}
	for _, cfg := range cases {
		if _, err := NewNode(svc, cfg); err == nil {
			t.Errorf("NewNode accepted %+v", cfg)
		}
	}
}

// failSvc rejects writes for one ID, driving a service-level NACK
// through the leader's accept path.
type failSvc struct {
	memSvc
	failID string
}

func (f *failSvc) Write(from simnet.Site, p service.Post) error {
	if p.ID == f.failID {
		return fmt.Errorf("injected service failure for %s", p.ID)
	}
	return f.memSvc.Write(from, p)
}

// TestNackedOpNotPublishedOrReplicated: an op the service rejects is
// not acked, and it is on no replica — the leader's, a follower's, or
// the one a restart rebuilds. The op itself is journaled and committed
// before the service sees it, so it holds its index in the log; every
// replica skips it alike.
func TestNackedOpNotPublishedOrReplicated(t *testing.T) {
	dir := t.TempDir()
	leader, err := NewNode(&failSvc{failID: "poison"}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(leader.Handler())
	defer ts.Close()

	writeOps(t, leader, 0, 1) // m0 @ index 1
	if err := leader.Write(simnet.DCWest, service.Post{ID: "poison"}); err == nil || !strings.Contains(err.Error(), "injected service failure") {
		t.Fatalf("service-rejected write returned %v, want the service's error", err)
	}
	if got := ids(t, leader); fmt.Sprint(got) != fmt.Sprint([]string{"m0"}) {
		t.Fatalf("leader's replica holds %v after the rejection, want [m0]", got)
	}
	writeOps(t, leader, 1, 1) // m1 @ index 3

	// The follower's service refuses the op too, as a replica of the
	// same deterministic service does.
	f, err := NewNode(&failSvc{failID: "poison"}, Config{
		NodeID: "n2", Role: RoleFollower, LeaderURL: ts.URL,
		DataDir: t.TempDir(), PullInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitIndex(t, f, 3)
	if got := ids(t, f); fmt.Sprint(got) != fmt.Sprint([]string{"m0", "m1"}) {
		t.Fatalf("follower replicated %v, want [m0 m1]", got)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewNode(&memSvc{}, Config{NodeID: "n1", Role: RoleLeader, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got := ids(t, restarted); fmt.Sprint(got) != fmt.Sprint([]string{"m0", "m1"}) {
		t.Fatalf("restart resurrected rejected op: %v", got)
	}
	if restarted.LastIndex() != 3 {
		t.Fatalf("restarted index = %d, want 3", restarted.LastIndex())
	}
}

// TestJournalFailureRollsBackReplica: when the WAL append fails, the
// write is NACKed and the local replica ends where it was — nothing is
// published, no index is consumed. Ops reach the replica only once
// committed, so there is nothing to roll back.
func TestJournalFailureRollsBackReplica(t *testing.T) {
	leader, _ := newLeader(t, t.TempDir(), 1<<20)
	writeOps(t, leader, 0, 2)
	want := ids(t, leader)

	leader.log.Close() // the disk goes away: every append now fails
	if err := leader.Write(simnet.DCWest, service.Post{ID: "mX"}); err == nil {
		t.Fatal("write with a dead WAL was acked")
	}
	if leader.LastIndex() != 2 {
		t.Fatalf("failed op consumed index: lastIndex = %d, want 2", leader.LastIndex())
	}
	if got := ids(t, leader); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica after failed journal = %v, want %v", got, want)
	}
	leader.mu.Lock()
	stateLen, opsLen := len(leader.state), len(leader.ops)
	leader.mu.Unlock()
	if stateLen != 2 || opsLen != 2 {
		t.Fatalf("failed op published: state=%d ops=%d, want 2/2", stateLen, opsLen)
	}
}

// TestConcurrentWritesResetsReplicaMatchesStream hammers the leader
// with racing writes and resets and requires the local replica to hold
// exactly the effective write set of the published stream, in stream
// order — the invariant the under-lock stage+publish sequence provides
// (out-of-order service application would diverge here). Run with
// -race.
func TestConcurrentWritesResetsReplicaMatchesStream(t *testing.T) {
	dir := t.TempDir()
	leader, _ := newLeader(t, dir, 8) // small interval: compaction races too
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := service.Post{ID: fmt.Sprintf("w%d-%d", w, i), Author: "a1", Body: "x"}
				if err := leader.Write(simnet.DCWest, p); err != nil {
					t.Errorf("write %s: %v", p.ID, err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := leader.Reset(); err != nil {
				t.Errorf("reset: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	got := ids(t, leader)
	leader.mu.Lock()
	want := make([]string, len(leader.state))
	for i, rec := range leader.state {
		var op Op
		if err := json.Unmarshal(rec, &op); err != nil {
			t.Fatal(err)
		}
		want[i] = op.ID
	}
	leader.mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica diverged from stream:\n got %v\nwant %v", got, want)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	restarted, _ := newLeader(t, dir, 8)
	defer restarted.Close()
	if got := ids(t, restarted); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restart diverged from stream:\n got %v\nwant %v", got, want)
	}
}
