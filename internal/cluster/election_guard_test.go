package cluster

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// captureTransport records every outbound RPC together with its done
// callback so a test can answer them at will — in any order, twice, or
// never. It is the unit-level analogue of the clustertest fabric's
// lagged links: a captured callback invoked after a role change IS a
// late response from a dead campaign.
type captureTransport struct {
	mu    sync.Mutex
	votes []capturedVote
	hbs   []capturedHB
	snaps []capturedSnap
}

type capturedVote struct {
	peer string
	req  VoteRequest
	done func(VoteResponse, error)
}

type capturedHB struct {
	peer string
	req  HeartbeatRequest
	done func(HeartbeatResponse, error)
}

type capturedSnap struct {
	peer string
	req  SnapshotChunkRequest
	done func(SnapshotChunkResponse, error)
}

func (c *captureTransport) RequestVote(peer string, req VoteRequest, done func(VoteResponse, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.votes = append(c.votes, capturedVote{peer, req, done})
}

func (c *captureTransport) Heartbeat(peer string, req HeartbeatRequest, done func(HeartbeatResponse, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hbs = append(c.hbs, capturedHB{peer, req, done})
}

// Pull requests are swallowed: none of the capture-based tests exercise
// replication pulls, and an unanswered pull just parks the puller.
func (c *captureTransport) Pull(string, PullRequest, func(PullResponse, error)) {}

func (c *captureTransport) FetchSnapshotChunk(peer string, req SnapshotChunkRequest, done func(SnapshotChunkResponse, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps = append(c.snaps, capturedSnap{peer, req, done})
}

func (c *captureTransport) takeVotes() []capturedVote {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.votes
	c.votes = nil
	return v
}

func (c *captureTransport) takeHBs() []capturedHB {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hbs
	c.hbs = nil
	return h
}

func (c *captureTransport) takeSnaps() []capturedSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.snaps
	c.snaps = nil
	return s
}

// waitHBs polls until `want` heartbeat requests have been captured (the
// leader's first tick fires on a real zero-delay timer, hence
// asynchronously to the test goroutine).
func (c *captureTransport) waitHBs(t *testing.T, want int) []capturedHB {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var got []capturedHB
	for time.Now().Before(deadline) {
		got = append(got, c.takeHBs()...)
		if len(got) >= want {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("captured %d heartbeat requests, want %d", len(got), want)
	return nil
}

func peerID(url string) string { return strings.TrimPrefix(url, "http://") }

// onHeartbeatResponse folds a reply that belongs to no outstanding
// append, as a test plays a member's answer by hand.
func (n *Node) onHeartbeatResponse(term, gen uint64, resp HeartbeatResponse, err error) {
	n.onAppendResponse(resp.URL, 0, 0, term, gen, resp, err)
}

// ageBoot backdates n's boot instant a full ElectionTimeout, expiring
// the boot-stickiness vote refusal so hand-driven tests exercise the
// steady-state grant rules. Tests pinning the boot guard itself skip it.
func ageBoot(n *Node) {
	n.mu.Lock()
	n.bootTime = n.bootTime.Add(-n.cfg.ElectionTimeout)
	n.mu.Unlock()
}

// guardNode is a 5-member clustered node (self plus four peers) whose
// timers are parked an hour out and whose transport records RPCs
// without delivering them: each test drives the protocol by hand.
func guardNode(t *testing.T) (*Node, *captureTransport) {
	t.Helper()
	tr := &captureTransport{}
	n, err := NewNode(&memSvc{}, Config{
		NodeID:            "g",
		SelfURL:           "http://g",
		Peers:             []string{"http://a", "http://b", "http://c", "http://d"},
		DataDir:           t.TempDir(),
		PullInterval:      time.Hour,
		ElectionTimeout:   time.Hour,
		HeartbeatInterval: time.Hour,
		QuorumTimeout:     500 * time.Millisecond,
		NoSync:            true,
		Transport:         tr,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(n.Kill)
	ageBoot(n)
	return n, tr
}

// electLeader campaigns and answers just enough vote requests (two, on
// top of the self-vote) to win the 5-member election.
func electLeader(t *testing.T, n *Node, tr *captureTransport) uint64 {
	t.Helper()
	n.electionTimerFired()
	if got := n.Role(); got != RoleCandidate {
		t.Fatalf("role after campaign start: %s", got)
	}
	term := n.Term()
	votes := tr.takeVotes()
	if len(votes) != 4 {
		t.Fatalf("captured %d vote requests, want 4", len(votes))
	}
	for _, v := range votes[:2] {
		v.done(VoteResponse{Term: term, Node: peerID(v.peer), URL: v.peer, Granted: true}, nil)
	}
	if got := n.Role(); got != RoleLeader {
		t.Fatalf("two grants plus the self-vote should elect in a 5-member cluster; role %s", got)
	}
	return term
}

// TestRestartedVoterSticky pins the boot half of leader stickiness:
// leaderID and lastLeaderContact die with the process, so a restarted
// quorum member knows nothing about how recently a live leader spoke.
// Granting a vote before a full ElectionTimeout of provable silence
// (measured from boot) would let a partitioned candidate assemble a
// quorum while the deposed leader's lease still runs — lease reads
// would then serve stale data in exactly the kill/restart scenario the
// chaos harness drills.
func TestRestartedVoterSticky(t *testing.T) {
	dir := t.TempDir()
	boot := func() *Node {
		n, err := NewNode(&memSvc{}, Config{
			NodeID:            "v",
			SelfURL:           "http://v",
			Peers:             []string{"http://a", "http://b", "http://c", "http://d"},
			DataDir:           dir,
			PullInterval:      time.Hour,
			ElectionTimeout:   time.Hour,
			HeartbeatInterval: time.Hour,
			NoSync:            true,
			Transport:         &captureTransport{},
		})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		return n
	}

	// Steady state: the voter hears leader "a" in term 2 (persisting the
	// term on the way), then the process crashes.
	n := boot()
	n.HandleHeartbeat(HeartbeatRequest{Term: 2, Leader: "a", LeaderURL: "http://a", Round: 1})
	n.Kill()

	// The restarted voter must refuse an up-to-date rival inside the
	// boot window — without adopting its term, exactly like the live
	// stickiness guard.
	r := boot()
	defer r.Kill()
	req := VoteRequest{Term: 3, Candidate: "b", CandidateURL: "http://b"}
	if resp := r.HandleVote(req); resp.Granted {
		t.Fatal("restarted voter granted a vote inside the boot-stickiness window")
	}
	if got := r.Term(); got != 2 {
		t.Fatalf("boot-sticky refusal adopted the candidate's term: term %d, want 2", got)
	}

	// After a full ElectionTimeout of boot silence the same request is
	// granted.
	ageBoot(r)
	if resp := r.HandleVote(req); !resp.Granted {
		t.Fatalf("vote refused after the boot window expired: %+v", resp)
	}
}

// TestLateVoteResponsesAfterStepDownIgnored delivers every grant from a
// campaign AFTER a rival's heartbeat has demoted the candidate in the
// same term. Counting them would resurrect leadership alongside the
// rival — two leaders, one term.
func TestLateVoteResponsesAfterStepDownIgnored(t *testing.T) {
	n, tr := guardNode(t)
	n.electionTimerFired()
	term := n.Term()
	votes := tr.takeVotes()
	if len(votes) != 4 {
		t.Fatalf("captured %d vote requests, want 4", len(votes))
	}

	// A rival won this exact term; its heartbeat demotes us.
	n.HandleHeartbeat(HeartbeatRequest{Term: term, Leader: "a", LeaderURL: "http://a", Round: 1})
	if got := n.Role(); got != RoleFollower {
		t.Fatalf("role after rival heartbeat: %s", got)
	}

	for _, v := range votes {
		v.done(VoteResponse{Term: term, Node: peerID(v.peer), URL: v.peer, Granted: true}, nil)
	}
	if got := n.Role(); got != RoleFollower {
		t.Fatalf("late grants from the finished campaign changed role to %s", got)
	}
}

// TestStaleGenerationVoteResponsesNotCounted pins the campaign
// generation token directly: grants tagged with a previous generation
// must not count even when term and role still match, while the same
// grants under the live generation elect.
func TestStaleGenerationVoteResponsesNotCounted(t *testing.T) {
	n, tr := guardNode(t)
	n.electionTimerFired()
	tr.takeVotes()
	n.mu.Lock()
	term, gen := n.currentTerm, n.campaignGen
	n.mu.Unlock()

	for _, peer := range []string{"http://a", "http://b", "http://c"} {
		n.onVoteResponse(term, gen-1, VoteResponse{
			Term: term, Node: peerID(peer), URL: peer, Granted: true,
		}, nil)
	}
	if got := n.Role(); got == RoleLeader {
		t.Fatal("grants from a previous campaign generation won the election")
	}

	for _, peer := range []string{"http://a", "http://b"} {
		n.onVoteResponse(term, gen, VoteResponse{
			Term: term, Node: peerID(peer), URL: peer, Granted: true,
		}, nil)
	}
	if got := n.Role(); got != RoleLeader {
		t.Fatalf("grants under the live generation should elect; role %s", got)
	}
}

// TestStaleGenerationHeartbeatAcksNotCounted is the write-side twin:
// follower acks tagged with a dead generation must advance neither the
// commit index nor the lease, while identical acks under the live
// generation do both.
func TestStaleGenerationHeartbeatAcksNotCounted(t *testing.T) {
	n, tr := guardNode(t)
	electLeader(t, n, tr)
	hbs := tr.waitHBs(t, 4) // the first tick's round, opened on election

	idx, err := n.ProposeWrite(simnet.DCWest, service.Post{ID: "w0", Author: "a1", Body: "x"})
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	n.mu.Lock()
	term, gen, lt := n.currentTerm, n.campaignGen, n.lastTerm
	n.mu.Unlock()

	ack := func(peer string, g uint64) {
		n.onHeartbeatResponse(term, g, HeartbeatResponse{
			Term: term, Node: peerID(peer), URL: peer,
			LastIndex: idx, LastTerm: lt, Round: hbs[0].req.Round,
		}, nil)
	}
	ack("http://a", gen-1)
	ack("http://b", gen-1)
	if got := n.CommitIndex(); got >= idx {
		t.Fatalf("stale-generation acks advanced commit to %d (write at %d)", got, idx)
	}
	if d := n.LeaseRemaining(); d != 0 {
		t.Fatalf("stale-generation acks extended the lease to %v", d)
	}

	ack("http://a", gen)
	ack("http://b", gen)
	if got := n.CommitIndex(); got != idx {
		t.Fatalf("live-generation acks left commit at %d, want %d", got, idx)
	}
	if d := n.LeaseRemaining(); d <= 0 {
		t.Fatal("live-generation round acks did not extend the lease")
	}
}

// TestLateHeartbeatAcksAfterStepDownIgnored delivers a whole round of
// heartbeat responses after the leader was deposed by a higher-term
// candidate. The deposed node must not count them toward commit or
// lease: its authority — and the lease math hung off it — died with the
// demotion.
func TestLateHeartbeatAcksAfterStepDownIgnored(t *testing.T) {
	n, tr := guardNode(t)
	term := electLeader(t, n, tr)
	hbs := tr.waitHBs(t, 4)

	idx, err := n.ProposeWrite(simnet.DCWest, service.Post{ID: "w0", Author: "a1", Body: "x"})
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	n.HandleVote(VoteRequest{
		Term: term + 1, Candidate: "a", CandidateURL: "http://a",
		LastIndex: idx + 100, LastTerm: term + 1,
	})
	if got := n.Role(); got != RoleFollower {
		t.Fatalf("role after higher-term vote request: %s", got)
	}

	for _, hb := range hbs {
		hb.done(HeartbeatResponse{
			Term: term, Node: peerID(hb.peer), URL: hb.peer,
			LastIndex: idx, LastTerm: term, Round: hb.req.Round,
		}, nil)
	}
	if got := n.Role(); got != RoleFollower {
		t.Fatalf("late heartbeat acks changed role to %s", got)
	}
	if got := n.CommitIndex(); got >= idx {
		t.Fatalf("acks delivered after demotion advanced commit to %d", got)
	}
	if d := n.LeaseRemaining(); d != 0 {
		t.Fatalf("acks delivered after demotion resurrected the lease: %v", d)
	}
}

// TestQuorumReadNeedsPostArrivalRound pins the read-index rule: only a
// heartbeat round that STARTED AFTER the read arrived can confirm it.
// Confirming the previous round proves leadership at some instant
// before the read — exactly the window where a deposed leader serves a
// value the new leader has already overwritten.
func TestQuorumReadNeedsPostArrivalRound(t *testing.T) {
	n, tr := guardNode(t)
	term := electLeader(t, n, tr)
	first := tr.waitHBs(t, 4) // round opened before the read

	ticket, err := n.StartRead(ReadQuorum)
	if err != nil {
		t.Fatalf("StartRead: %v", err)
	}
	if ticket.Used != ReadQuorum {
		t.Fatalf("ticket mode %s, want %s", ticket.Used, ReadQuorum)
	}
	if ready, _ := ticket.Ready(); ready {
		t.Fatal("quorum read ready before any round confirmed")
	}
	kicked := tr.waitHBs(t, 4) // the round StartRead kicked

	// Both rounds' replies hold the election barrier, so it commits with
	// the first: what keeps the ticket waiting after that is the round.
	barrier := n.LastIndex()
	answer := func(hbs []capturedHB) {
		for _, hb := range hbs[:2] {
			hb.done(HeartbeatResponse{
				Term: term, Node: peerID(hb.peer), URL: hb.peer, Round: hb.req.Round,
				LastIndex: barrier, LastTerm: term,
			}, nil)
		}
	}
	answer(first)
	if ready, err := ticket.Ready(); ready || err != nil {
		t.Fatalf("pre-read round confirmed the ticket: ready=%t err=%v", ready, err)
	}
	answer(kicked)
	if ready, err := ticket.Ready(); err != nil || !ready {
		t.Fatalf("post-read round did not confirm the ticket: ready=%t err=%v", ready, err)
	}

	// The confirmed rounds earned a lease, so lease reads are now free.
	if d := n.LeaseRemaining(); d <= 0 {
		t.Fatal("confirmed rounds did not extend the lease")
	}
	lease, err := n.StartRead(ReadLease)
	if err != nil || lease.Used != ReadLease {
		t.Fatalf("lease read under a live lease: used=%s err=%v", lease.Used, err)
	}
}

// TestQuorumReadTimesOutWithoutQuorum: a leader whose peers never
// answer must fail the read at QuorumTimeout, not serve it — under
// partition the old leader blocks rather than returning stale data.
func TestQuorumReadTimesOutWithoutQuorum(t *testing.T) {
	n, tr := guardNode(t)
	electLeader(t, n, tr)
	ticket, err := n.StartRead(ReadQuorum)
	if err != nil {
		t.Fatalf("StartRead: %v", err)
	}
	if err := ticket.Wait(); err == nil {
		t.Fatal("quorum read confirmed with no reachable peers")
	}
}

// TestReadTicketFailsOnDemotion: a pending read ticket must fail with a
// leader hint once its issuer is deposed, never ripen under the dead
// authority.
func TestReadTicketFailsOnDemotion(t *testing.T) {
	n, tr := guardNode(t)
	term := electLeader(t, n, tr)
	ticket, err := n.StartRead(ReadQuorum)
	if err != nil {
		t.Fatalf("StartRead: %v", err)
	}
	n.HandleVote(VoteRequest{
		Term: term + 1, Candidate: "a", CandidateURL: "http://a",
		LastIndex: 1000, LastTerm: term + 1,
	})
	_, rerr := ticket.Ready()
	var nle *NotLeaderError
	if !errors.As(rerr, &nle) {
		t.Fatalf("want NotLeaderError after demotion, got %v", rerr)
	}
}

// TestStartReadModes covers the immediate-ready paths: local everywhere,
// the single-member leader-is-the-quorum shortcut, the stale-lease
// downgrade to quorum, and the non-leader refusal with a leader hint.
func TestStartReadModes(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 1<<20)
	defer leader.Close()
	writeOps(t, leader, 0, 3)

	local, err := leader.StartRead(ReadLocal)
	if err != nil || local.Used != ReadLocal {
		t.Fatalf("local read: used=%s err=%v", local.Used, err)
	}
	// No heartbeat rounds ever run standalone, so a lease never forms:
	// lease mode downgrades to the quorum path, which a single-member
	// config satisfies alone.
	lease, err := leader.StartRead(ReadLease)
	if err != nil || lease.Used != ReadQuorum {
		t.Fatalf("standalone lease read: used=%s err=%v", lease.Used, err)
	}
	if err := lease.Wait(); err != nil {
		t.Fatalf("standalone lease-mode wait: %v", err)
	}
	posts, used, err := leader.ReadLinearizable(simnet.DCWest, "r", ReadQuorum)
	if err != nil || used != ReadQuorum || len(posts) != 3 {
		t.Fatalf("standalone quorum read: %d posts, used=%s, err=%v", len(posts), used, err)
	}

	f := newFollower(t, "n2", t.TempDir(), ts.URL, time.Hour)
	defer f.Close()
	if _, _, err := f.ReadLinearizable(simnet.DCWest, "r", ReadLease); err == nil {
		t.Fatal("lease read on a follower did not refuse")
	} else {
		var nle *NotLeaderError
		if !errors.As(err, &nle) || nle.Leader != ts.URL {
			t.Fatalf("follower refusal should hint the leader %s, got %v", ts.URL, err)
		}
	}
	if _, used, err := f.ReadLinearizable(simnet.DCWest, "r", ReadLocal); err != nil || used != ReadLocal {
		t.Fatalf("local read on a follower: used=%s err=%v", used, err)
	}
}
