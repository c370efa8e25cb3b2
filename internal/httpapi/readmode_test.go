package httpapi

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// swapHandler lets an httptest server exist before the cluster node it
// serves (member URLs must be known at node construction).
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "node not started", http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

// startHTTPCluster brings up a 3-node replicated cluster served the way
// consvc serves it: /cluster/* from the node handler, everything else
// through the httpapi server wrapping the node.
func startHTTPCluster(t *testing.T) (urls []string, nodes []*cluster.Node, servers []*httptest.Server) {
	t.Helper()
	handlers := make([]*swapHandler, 3)
	for i := range handlers {
		handlers[i] = &swapHandler{}
		srv := httptest.NewServer(handlers[i])
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	ids := []string{"n1", "n2", "n3"}
	for i, id := range ids {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		role := ""
		if i == 0 {
			role = cluster.RoleLeader
		}
		node, err := cluster.NewNode(&memService{}, cluster.Config{
			NodeID: id, Role: role, SelfURL: urls[i], Peers: peers,
			DataDir:           t.TempDir(),
			PullInterval:      25 * time.Millisecond,
			ElectionTimeout:   250 * time.Millisecond,
			HeartbeatInterval: 25 * time.Millisecond,
			SnapshotEvery:     1 << 20,
			Seed:              7,
			NoSync:            true,
		})
		if err != nil {
			t.Fatalf("node %s: %v", id, err)
		}
		t.Cleanup(node.Kill)
		nodes = append(nodes, node)
		mux := http.NewServeMux()
		mux.Handle("/cluster/", node.Handler())
		mux.Handle("/", NewServer(node, ServerConfig{}))
		handlers[i].set(mux)
	}
	return urls, nodes, servers
}

// TestClusterReadsFollowTheLeader is the regression test for the
// stale-read latch bug: a client whose reads are latched to the leader
// must re-discover the new leader when the latched node dies mid-run —
// the old behavior kept reading the deposed node's replica forever.
func TestClusterReadsFollowTheLeader(t *testing.T) {
	urls, nodes, servers := startHTTPCluster(t)

	// Client talks to a follower first; its write latches the leader.
	cl, err := NewClient(urls[1], "cluster", nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetPeers(urls)
	cl.SetReadMode(cluster.ReadQuorum)
	if err := cl.Write(simnet.DCWest, service.Post{ID: "w1", Author: "a1", Body: "x"}); err != nil {
		t.Fatalf("write w1: %v", err)
	}
	posts, err := cl.Read(simnet.DCWest, "r")
	if err != nil {
		t.Fatalf("quorum read on live leader: %v", err)
	}
	if len(posts) != 1 || posts[0].ID != "w1" {
		t.Fatalf("quorum read returned %v, want [w1]", posts)
	}
	if st := cl.ReadStats(); st.Quorum == 0 {
		t.Fatalf("read stats did not record a quorum-vouched read: %+v", st)
	}

	// Kill the latched leader the hard way: process gone, port refused.
	nodes[0].Kill()
	servers[0].CloseClientConnections()
	servers[0].Close()

	waitForLeader(t, nodes[1:])

	// The next read must chase the new leader instead of failing against
	// (or worse, trusting) the dead latch target.
	var after []service.Post
	deadline := time.Now().Add(10 * time.Second)
	for {
		after, err = cl.Read(simnet.DCWest, "r")
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("read after leader death never recovered: %v", err)
	}
	if len(after) != 1 || after[0].ID != "w1" {
		t.Fatalf("post-failover read returned %v, want the acked [w1]", after)
	}
	st := cl.ReadStats()
	if st.RedirectedReads == 0 || st.RedirectRetriesOK == 0 {
		t.Fatalf("read failover not recorded: %+v", st)
	}

	// Reads and writes share the latch: the follow-up write goes
	// straight to the re-discovered leader, no second write failover.
	before := cl.RedirectStats()
	if err := cl.Write(simnet.DCWest, service.Post{ID: "w2", Author: "a1", Body: "y"}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if got := cl.RedirectStats(); got.RedirectedWrites != before.RedirectedWrites {
		t.Fatalf("write after read-latched failover still redirected: %+v -> %+v", before, got)
	}
}

func waitForLeader(t *testing.T, nodes []*cluster.Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.Role() == cluster.RoleLeader {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no new leader elected after the old one died")
}

// TestReadModeDegradesOnStandaloneServer: a server that cannot prove a
// read current answers mode=lease with a local read and says so in
// X-Read-Mode, which the client reports as Degraded; a mode it does not
// know is a 400.
func TestReadModeDegradesOnStandaloneServer(t *testing.T) {
	srv := httptest.NewServer(NewServer(&memService{}, ServerConfig{}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	cl.SetReadMode(cluster.ReadLease)
	if err := cl.Write(simnet.DCWest, service.Post{ID: "m1", Author: "a1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		posts, err := cl.Read(simnet.DCWest, "r")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(posts) != 1 || posts[0].ID != "m1" {
			t.Fatalf("read %d returned %v", i, posts)
		}
	}
	if st := cl.ReadStats(); !st.Degraded || st.Local != 2 || st.Lease != 0 {
		t.Fatalf("want two local-vouched reads and Degraded, got %+v", st)
	}
	for mode, want := range map[string]struct {
		status int
		header string
	}{"lease": {http.StatusOK, "local"}, "local": {http.StatusOK, ""}, "bogus": {http.StatusBadRequest, ""}} {
		resp := getPosts(t, srv.URL, mode)
		if resp.StatusCode != want.status || resp.Header.Get(ReadModeHeader) != want.header {
			t.Errorf("mode=%s: %d, X-Read-Mode %q; want %d, %q", mode, resp.StatusCode, resp.Header.Get(ReadModeHeader), want.status, want.header)
		}
	}
}

// getPosts issues GET /posts?reader=r&mode=mode from Oregon and closes
// the body.
func getPosts(t *testing.T, base, mode string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/posts?reader=r&mode="+mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SiteHeader, string(simnet.Oregon))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestLinearizableReadsAreAdmitted: a lease read passes the admission
// and rate limit every GET /posts passes — past the rate it is a 429
// with a Retry-After — and a served one counts in /stats.
func TestLinearizableReadsAreAdmitted(t *testing.T) {
	node, err := cluster.NewNode(&memService{}, cluster.Config{
		NodeID: "n1", Role: cluster.RoleLeader, DataDir: t.TempDir(), NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Kill)
	srv := httptest.NewServer(NewServer(node, ServerConfig{RatePerSecond: 0.001, Burst: 2}))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		// A lone leader never runs a heartbeat round, so no lease forms:
		// its own quorum vouches instead.
		if resp := getPosts(t, srv.URL, "lease"); resp.StatusCode != http.StatusOK || resp.Header.Get(ReadModeHeader) != "quorum" {
			t.Fatalf("lease read %d: %d, X-Read-Mode %q; want 200, quorum", i, resp.StatusCode, resp.Header.Get(ReadModeHeader))
		}
	}
	resp := getPosts(t, srv.URL, "lease")
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("lease read past the rate: %d, Retry-After %q; want 429 with a hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var st StatsJSON
	getJSON(t, srv, "/stats", &st)
	if st.Reads != 2 || st.RateLimited != 1 {
		t.Fatalf("stats %+v; want 2 reads and 1 rate-limited", st)
	}
}

// TestFollowerRefusesLeaseRead: a follower answers GET /posts?mode=lease
// with 421 and the leader's URL, the refusal the client's read failover
// follows.
func TestFollowerRefusesLeaseRead(t *testing.T) {
	urls, _, _ := startHTTPCluster(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := getPosts(t, urls[1], "lease")
		if resp.StatusCode == http.StatusMisdirectedRequest && resp.Header.Get(LeaderHeader) == urls[0] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower answered a lease read with %d, %s %q; want 421 naming %s",
				resp.StatusCode, LeaderHeader, resp.Header.Get(LeaderHeader), urls[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
