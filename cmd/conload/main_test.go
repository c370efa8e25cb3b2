package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/httpapi"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

func TestBuildValidation(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{"no target", nil},
		{"both targets", []string{"-addr", "http://x", "-inproc"}},
		{"bad users", []string{"-inproc", "-users", "0"}},
		{"bad duration", []string{"-inproc", "-duration", "0s"}},
		{"bad ratio", []string{"-inproc", "-write-ratio", "1.5"}},
		{"bad rate", []string{"-inproc", "-rate", "-1"}},
		{"no sites", []string{"-inproc", "-sites", " , "}},
		{"bad spike users", []string{"-inproc", "-spike-users", "-1"}},
		{"bad spike for", []string{"-inproc", "-spike-for", "-1s"}},
		{"removed -shards", []string{"-inproc", "-shards", "4"}},
	} {
		if _, err := build(tt.args); err == nil {
			t.Errorf("%s: build accepted %v", tt.name, tt.args)
		}
	}
	cfg, err := build([]string{"-inproc", "-service", "fbfeed", "-users", "4", "-sites", "oregon, tokyo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Sites) != 2 || cfg.Sites[1] != simnet.Tokyo {
		t.Fatalf("sites = %v", cfg.Sites)
	}
}

// TestRunInProcSmoke drives a short closed-loop run against the
// in-process fbgroup profile with the API delay zeroed, then checks the
// summary is internally consistent and serializes to valid JSON.
func TestRunInProcSmoke(t *testing.T) {
	cfg, err := build([]string{
		"-inproc", "-service", "fbgroup", "-users", "4",
		"-duration", "300ms", "-write-ratio", "0.3",
		"-api-delay", "0", "-run-id", "smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Service != "fbgroup" || sum.Target != "inproc" {
		t.Fatalf("summary identifies %q at %q", sum.Service, sum.Target)
	}
	if sum.Requests == 0 || sum.Requests != sum.Writes+sum.Reads {
		t.Fatalf("requests = %d (writes %d, reads %d)", sum.Requests, sum.Writes, sum.Reads)
	}
	if sum.Errors != 0 {
		t.Fatalf("%d errors in a fault-free run", sum.Errors)
	}
	if sum.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", sum.ThroughputRPS)
	}
	if sum.Reads > 0 && sum.ReadLatencyMS.P50 <= 0 {
		t.Fatalf("read p50 = %v with %d reads", sum.ReadLatencyMS.P50, sum.Reads)
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if _, ok := decoded["metrics"].(map[string]any); !ok {
		t.Fatal("summary lacks the embedded metrics snapshot")
	}
}

// TestRunAgainstHTTPServer exercises the client path end to end: a real
// httpapi server over a simulated blogger service, probed through
// -addr.
func TestRunAgainstHTTPServer(t *testing.T) {
	prof := service.Blogger()
	prof.APIDelay = 0
	svc, err := service.NewSimulated(vtime.Real{}, simnet.DefaultTopology(1), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerConfig{Clock: vtime.Real{}}))
	defer ts.Close()

	cfg, err := build([]string{
		"-addr", ts.URL, "-users", "2", "-duration", "250ms",
		"-write-ratio", "0.5", "-rate", "40", "-run-id", "httpsmoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Target != ts.URL {
		t.Fatalf("target = %q, want %q", sum.Target, ts.URL)
	}
	if sum.Requests == 0 {
		t.Fatal("no requests completed against the HTTP server")
	}
	if sum.Errors != 0 {
		t.Fatalf("%d errors against a healthy server", sum.Errors)
	}
}

// notLeader refuses every write with a leader hint, the way a cluster
// follower does, while serving reads from the wrapped service.
type notLeader struct {
	service.Service
	leader string
}

func (n *notLeader) Write(simnet.Site, service.Post) error {
	return &notLeaderErr{leader: n.leader}
}

type notLeaderErr struct{ leader string }

func (e *notLeaderErr) Error() string      { return "cluster: not the leader" }
func (e *notLeaderErr) LeaderHint() string { return e.leader }

// TestRunFollowsLeaderRedirects points conload at a follower that 421s
// every write with an X-Cluster-Leader hint, and checks the first
// refused write is retried against the leader and counted as
// redirected, after which the client sticks to the leader — so writes
// keep succeeding and nothing reaches the error count.
func TestRunFollowsLeaderRedirects(t *testing.T) {
	prof := service.Blogger()
	prof.APIDelay = 0
	svc, err := service.NewSimulated(vtime.Real{}, simnet.DefaultTopology(1), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	leader := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerConfig{Clock: vtime.Real{}}))
	defer leader.Close()
	follower := httptest.NewServer(httpapi.NewServer(
		&notLeader{Service: svc, leader: leader.URL},
		httpapi.ServerConfig{Clock: vtime.Real{}},
	))
	defer follower.Close()

	cfg, err := build([]string{
		"-addr", follower.URL, "-users", "2", "-duration", "250ms",
		"-write-ratio", "0.5", "-run-id", "redirsmoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Writes == 0 {
		t.Fatal("no writes issued")
	}
	if sum.RedirectedWrites == 0 {
		t.Fatal("the follower's 421s never registered as redirected writes")
	}
	if sum.RedirectRetriesOK != sum.RedirectedWrites {
		t.Fatalf("only %d of %d redirected writes succeeded on the leader", sum.RedirectRetriesOK, sum.RedirectedWrites)
	}
	if sum.Errors != 0 {
		t.Fatalf("%d errors despite every redirect being followable", sum.Errors)
	}
}

// TestRunCountsShedRequests spikes a server whose admission queue
// admits one request at a time, and checks the 429 rejections surface
// in the summary's shed count rather than as anonymous errors.
func TestRunCountsShedRequests(t *testing.T) {
	prof := service.Blogger()
	prof.APIDelay = 20 * time.Millisecond
	svc, err := service.NewSimulated(vtime.Real{}, simnet.DefaultTopology(1), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerConfig{
		Clock:       vtime.Real{},
		MaxInflight: 1,
		MaxQueue:    0,
	}))
	defer ts.Close()

	cfg, err := build([]string{
		"-addr", ts.URL, "-users", "2", "-duration", "400ms",
		"-write-ratio", "0.5", "-run-id", "shedsmoke",
		"-spike-users", "8", "-spike-for", "200ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SpikeUsers != 8 {
		t.Fatalf("spike users = %d", sum.SpikeUsers)
	}
	if sum.Shed == 0 {
		t.Fatal("spiked past MaxInflight=1 but no requests were shed")
	}
	if sum.Errors < sum.Shed {
		t.Fatalf("errors = %d < shed = %d; sheds must count as errors", sum.Errors, sum.Shed)
	}
	if sum.Interrupted {
		t.Fatal("run reported interrupted without a signal")
	}
}

// lateMux answers 503 until a real handler is installed, breaking the
// URL-before-node cycle when wiring cluster nodes to httptest servers.
type lateMux struct {
	mu sync.Mutex
	h  http.Handler
}

func (l *lateMux) set(h http.Handler) {
	l.mu.Lock()
	l.h = h
	l.mu.Unlock()
}

func (l *lateMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// TestRunFollowsLeaderChangeMidCampaign runs conload against a real
// 3-node elected cluster and kills the leader mid-campaign: the client
// must first follow the 421 hint from its follower base to the elected
// leader, then — when that leader dies — rediscover the new one
// through -peers, with both hops pinned in the redirected_writes and
// redirect_retries_ok counters. Reads stay on the follower base
// throughout: follower lag is the measurement surface.
func TestRunFollowsLeaderChangeMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time failover test")
	}
	const size = 3
	muxes := make([]*lateMux, size)
	servers := make([]*httptest.Server, size)
	urls := make([]string, size)
	for i := range muxes {
		muxes[i] = &lateMux{}
		servers[i] = httptest.NewServer(muxes[i])
		urls[i] = servers[i].URL
		defer servers[i].Close()
	}
	nodes := make([]*cluster.Node, size)
	for i := 0; i < size; i++ {
		prof := service.Blogger()
		prof.APIDelay = 0
		svc, err := service.NewSimulated(vtime.Real{}, simnet.DefaultTopology(int64(i+1)), prof, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		peers := make([]string, 0, size-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		node, err := cluster.NewNode(svc, cluster.Config{
			NodeID:            fmt.Sprintf("n%d", i+1),
			SelfURL:           urls[i],
			Peers:             peers,
			DataDir:           t.TempDir(),
			PullInterval:      20 * time.Millisecond,
			ElectionTimeout:   150 * time.Millisecond,
			HeartbeatInterval: 30 * time.Millisecond,
			QuorumTimeout:     3 * time.Second,
			NoSync:            true,
			Seed:              int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Kill()
		nodes[i] = node
		mux := http.NewServeMux()
		mux.Handle("/cluster/", node.Handler())
		mux.Handle("/", httpapi.NewServer(node, httpapi.ServerConfig{Clock: vtime.Real{}}))
		muxes[i].set(mux)
	}

	leaderIdx := -1
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline) && leaderIdx < 0; {
		for i, nd := range nodes {
			if nd.Role() == cluster.RoleLeader {
				leaderIdx = i
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaderIdx < 0 {
		t.Fatal("no leader elected")
	}
	baseIdx := (leaderIdx + 1) % size
	peerFlags := make([]string, 0, size-1)
	for j, u := range urls {
		if j != baseIdx {
			peerFlags = append(peerFlags, u)
		}
	}
	cfg, err := build([]string{
		"-addr", urls[baseIdx], "-peers", strings.Join(peerFlags, ","),
		"-users", "2", "-duration", "3s", "-write-ratio", "1",
		"-run-id", "failover",
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(800 * time.Millisecond)
		nodes[leaderIdx].Kill()
		servers[leaderIdx].CloseClientConnections()
		servers[leaderIdx].Close()
	}()
	sum, err := run(cfg)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Writes == 0 {
		t.Fatal("no writes issued")
	}
	// Two failovers must be pinned: follower 421 -> leader, then dead
	// leader -> newly elected leader via -peers discovery.
	if sum.RedirectedWrites < 2 {
		t.Fatalf("redirected_writes = %d, want >= 2 (421 hop + post-kill rediscovery)", sum.RedirectedWrites)
	}
	if sum.RedirectRetriesOK < 2 {
		t.Fatalf("redirect_retries_ok = %d, want >= 2; writes never resumed on the new leader", sum.RedirectRetriesOK)
	}
	if sum.Writes <= sum.Errors {
		t.Fatalf("writes (%d) should dominate errors (%d) across a single failover", sum.Writes, sum.Errors)
	}
}
