package cluster

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"conprobe/internal/detrand"
)

// This file is the event-driven election and replication engine. There
// are no long-lived goroutine loops: everything happens in timer
// callbacks (election timeout, heartbeat tick, a non-member's pull),
// transport done-callbacks, and the Handle* RPC methods, all serialized
// on n.mu.
// One rule keeps it deadlock-free across both the HTTP transport and
// the deterministic in-process harness: n.mu is NEVER held across a
// transport call — requests are built under the lock, sent after
// releasing it.

// Bounds on the entries one heartbeat carries. The byte bound counts op
// records and always admits one op, so a single large write still
// replicates (maxRPCBody leaves room for it).
const (
	maxAppendOps   = 512
	maxAppendBytes = 1 << 20
)

// resetElectionTimerLocked (re)arms the election timeout with a fresh
// deterministic jitter draw: base + uniform[0, base). Armed only for
// voting members of a multi-node configuration — a standalone leader, a
// legacy pure-pull follower, a still-joining node and a removed member
// must never campaign. A follower re-arms it on every append it takes,
// with a Reset, which allocates nothing.
func (n *Node) resetElectionTimerLocked() {
	if !n.clusteredLocked() || n.closed || n.role == RoleLeader {
		if n.electionTimer != nil {
			n.electionTimer.Stop()
			n.electionTimer = nil
		}
		return
	}
	base := n.cfg.ElectionTimeout
	jitter := time.Duration(detrand.NewKey(n.cfg.Seed, "cluster.election").
		Str(n.cfg.NodeID).Uint(n.drawCount).Intn(int64(base)))
	n.drawCount++
	if n.electionTimer == nil {
		n.electionTimer = n.cfg.Clock.AfterFunc(base+jitter, n.electionTimerFired)
	} else {
		n.electionTimer.Reset(base + jitter)
	}
}

// rearmHeartbeatLocked moves the next heartbeat tick to d from now, with
// a Reset when the timer exists.
func (n *Node) rearmHeartbeatLocked(d time.Duration) {
	if n.heartbeatTimer == nil {
		n.heartbeatTimer = n.cfg.Clock.AfterFunc(d, n.heartbeatTick)
	} else {
		n.heartbeatTimer.Reset(d)
	}
}

// votesWithheldLocked reports whether this node must refuse every vote
// grant — and skip its own candidacy, since a campaign casts a
// self-vote — because recovery could not prove its voting history:
//
//   - rebuilding: the oplog or snapshot was quarantined, so the
//     up-to-dateness gate would compare candidates against an emptied
//     log and could elect a leader missing entries this node once
//     acked toward a commit. The restriction is a persisted marker,
//     retired only by rebuiltLocked after a durable re-source from the
//     current leader — no amount of elapsed time lifts it.
//   - vote-hold window: the term log was quarantined, so a granted
//     vote may be forgotten; grants stay withheld for voteHoldWindow.
//     Once the window elapses uninterrupted in a live process, the
//     persisted hold marker is retired so the next boot does not
//     re-arm it; a failed removal leaves the marker to conservatively
//     re-arm — never the unsafe direction.
func (n *Node) votesWithheldLocked() bool {
	if n.rebuilding {
		return true
	}
	if n.nonGrantingUntil.IsZero() {
		return false
	}
	if n.cfg.Clock.Now().Before(n.nonGrantingUntil) {
		return true
	}
	n.nonGrantingUntil = time.Time{}
	if n.voteHold {
		n.voteHold = false
		if n.cfg.DataDir != "" {
			_ = n.removeMarker(n.voteHoldMarkerPath())
		}
	}
	return false
}

// electionTimerFired starts a campaign: bump the term, vote for self
// (persisted before anything is sent), solicit the peers.
func (n *Node) electionTimerFired() {
	n.mu.Lock()
	if n.closed || n.role == RoleLeader || !n.clusteredLocked() {
		n.mu.Unlock()
		return
	}
	if n.votesWithheldLocked() {
		// Campaigning would cast a self-vote in a term this node may
		// already have voted in (vote-hold), or offer an emptied log as
		// election-worthy history (rebuilding). Wait the restriction out.
		n.resetElectionTimerLocked()
		n.mu.Unlock()
		return
	}
	prevTerm, prevVoted := n.currentTerm, n.votedFor
	n.currentTerm++
	n.votedFor = n.cfg.NodeID
	if err := n.terms.save(termRecord{Term: n.currentTerm, VotedFor: n.cfg.NodeID}); err != nil {
		// Could not make the self-vote durable; campaigning anyway could
		// double-vote after a crash. Back out and retry next timeout.
		n.currentTerm, n.votedFor = prevTerm, prevVoted
		n.resetElectionTimerLocked()
		n.mu.Unlock()
		return
	}
	n.role = RoleCandidate
	n.leaderID, n.leaderURL = "", ""
	n.campaignGen++
	n.votes = map[string]bool{n.cfg.SelfURL: true}
	term, gen := n.currentTerm, n.campaignGen
	req := VoteRequest{
		Term: term, Candidate: n.cfg.NodeID, CandidateURL: n.cfg.SelfURL,
		LastIndex: n.lastIndex, LastTerm: n.lastTerm,
	}
	n.emitLocked(Event{Type: EventBecomeCandidate, Term: term, Index: n.lastIndex})
	// Re-arm: a split vote re-campaigns in a higher term after a fresh
	// jittered timeout. Writers blocked on the old leadership fail now.
	n.resetElectionTimerLocked()
	n.commitCond.Broadcast()
	peers, tr := n.peerURLsLocked(), n.cfg.Transport
	n.mu.Unlock()

	for _, p := range peers {
		tr.RequestVote(p, req, func(resp VoteResponse, err error) {
			n.onVoteResponse(term, gen, resp, err)
		})
	}
}

// onVoteResponse tallies one peer's answer to our campaign in `term`,
// generation `gen`. The generation guard is what keeps a response that
// was delayed across a step-down-and-re-campaign from being counted
// toward a tally it never belonged to: the term check alone cannot
// distinguish two episodes that happen to share a term number after a
// persisted-term rollback or a vote counted post-demotion.
func (n *Node) onVoteResponse(term, gen uint64, resp VoteResponse, err error) {
	if err != nil {
		return // unreachable peer; the re-campaign timer handles it
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if resp.Term > n.currentTerm {
		n.stepDownLocked(resp.Term, "", "")
		return
	}
	if n.role != RoleCandidate || n.currentTerm != term || n.campaignGen != gen || !resp.Granted {
		return
	}
	voter := resp.URL
	if voter == "" {
		voter = resp.Node // legacy voter without a URL; can only matter if membership lists it
	}
	n.votes[voter] = true
	if n.config.VoteSatisfied(func(url string) bool { return n.votes[url] }) {
		n.becomeLeaderLocked()
	}
}

// becomeLeaderLocked transitions to leader in the current term.
func (n *Node) becomeLeaderLocked() {
	n.role = RoleLeader
	n.leaderID = n.cfg.NodeID
	n.leaderURL = n.cfg.SelfURL
	n.votes = nil
	n.campaignGen++ // stray grants from the finished campaign are now inert
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if n.pullTimer != nil {
		n.pullTimer.Stop()
		n.pullTimer = nil
	}
	n.pullInFlight, n.snapInFlight = false, false
	// Fresh progress tracking: nothing a previous leader learned about
	// follower positions is trusted across a term change. Every member's
	// record is created now, before the barrier below is appended, so the
	// first request to each assumes the log head this node was elected on
	// — the Raft nextIndex guess — and carries the barrier to every
	// follower that is where the election found it.
	n.followers = make(map[string]*follower)
	for _, url := range n.peerURLsLocked() {
		n.followerLocked(url, "")
	}
	// Fresh lease state: a new leader holds no lease until its own
	// heartbeat rounds earn one.
	n.rounds = make(map[uint64]*hbRound)
	n.confirmedRound, n.prunedRound = n.roundSeq, n.roundSeq
	n.leaseUntil = time.Time{}
	n.snapCache = nil
	n.refused = make(map[uint64]error)
	if len(n.peerURLsLocked()) > 0 {
		// Commit barrier: commitIndex only ever advances across
		// current-term entries (counting replicas of an old-term entry is
		// the classic Raft figure-8 unsafety), so append a no-op of this
		// term; when it reaches quorum, everything inherited beneath it
		// commits with it.
		_, _ = n.appendNewLocked(Op{Kind: opNoop})
		n.heartbeatTimer = n.cfg.Clock.AfterFunc(0, n.heartbeatTick)
	}
	n.barrier = n.lastIndex
	n.recomputeCommitLocked()
	n.emitLocked(Event{Type: EventBecomeLeader, Term: n.currentTerm, Index: n.lastIndex})
	n.commitCond.Broadcast()
	// An inherited joint entry may already be committed (e.g. recovered
	// below the compaction floor): finish the reconfiguration now rather
	// than waiting for a commit advance that may never come.
	n.maybeFinishReconfigureLocked()
}

// stepDownLocked adopts a higher term (persisted best-effort; the
// durability that matters — never granting twice in one term — is
// enforced at grant time) and/or demotes to follower. leaderID/URL name
// the new authority when known.
func (n *Node) stepDownLocked(term uint64, leaderID, leaderURL string) {
	if term > n.currentTerm {
		n.currentTerm = term
		n.votedFor = ""
		_ = n.terms.save(termRecord{Term: term})
	}
	if leaderURL != "" {
		n.leaderID, n.leaderURL = leaderID, leaderURL
	}
	if n.role != RoleFollower {
		n.role = RoleFollower
		n.votes = nil
		n.campaignGen++ // invalidate any in-flight vote/heartbeat tallies
		// Demotion revokes lease authority outright; pending lease or
		// quorum read tickets fail rather than serve under dead authority.
		n.rounds = make(map[uint64]*hbRound)
		n.prunedRound = n.roundSeq
		n.leaseUntil = time.Time{}
		n.snapCache = nil
		if n.heartbeatTimer != nil {
			n.heartbeatTimer.Stop()
			n.heartbeatTimer = nil
		}
		n.emitLocked(Event{Type: EventStepDown, Term: n.currentTerm, Index: n.lastIndex})
		// Writers parked in WaitCommitted must fail over.
		n.commitCond.Broadcast()
	}
	// Whoever leads now replicates to this node from here on — unless the
	// configuration no longer lists it, and then it polls.
	n.membershipChangedLocked()
}

// HandleVote answers a peer's vote solicitation. The grant is made
// durable — (term, votedFor) fsynced to the term WAL — strictly before
// the response carries it, so a node that crashes right after granting
// recovers remembering the grant and can never vote twice in one term.
func (n *Node) HandleVote(req VoteRequest) VoteResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := VoteResponse{Node: n.cfg.NodeID, URL: n.cfg.SelfURL}
	if n.closed {
		resp.Term = n.currentTerm
		return resp
	}
	// Leader stickiness: while a live leader's heartbeats are fresh
	// (within ElectionTimeout), refuse other candidates WITHOUT adopting
	// their term — a partitioned or clock-fast node must not be able to
	// depose a healthy leader early. This is also what makes the leader
	// lease sound: a new leader cannot assemble a vote quorum until every
	// possible lease granted by the old one has expired, because any vote
	// quorum overlaps the quorum that confirmed the lease round.
	if n.leaderID != "" && n.leaderID != req.Candidate &&
		n.cfg.Clock.Since(n.lastLeaderContact) < n.cfg.ElectionTimeout {
		resp.Term = n.currentTerm
		return resp
	}
	// Boot stickiness: the guard above lives in memory, so a restarted
	// voter boots with leaderID=="" and would grant immediately — a crash
	// quorum member could then elect a partitioned candidate while the
	// old leader's lease still runs. Until a full ElectionTimeout of
	// leader silence has provably elapsed (measured from boot, the
	// earliest instant this process can vouch for), refuse every grant,
	// again without adopting the candidate's term. Costs at most one
	// timeout of liveness after a restart; the node's own campaign timer
	// cannot fire sooner either.
	if n.cfg.Clock.Since(n.bootTime) < n.cfg.ElectionTimeout {
		resp.Term = n.currentTerm
		return resp
	}
	// Withheld votes: recovery quarantined a log this node's grants
	// depend on. A quarantined term log may hold forgotten votes (the
	// vote-hold window); a quarantined oplog or snapshot empties the
	// log the up-to-dateness gate below compares against, so granting
	// could elect a leader missing entries this node once acked toward
	// a commit (rebuilding — withheld until the log is re-sourced from
	// a current leader, however long that takes). Refuse, again without
	// adopting the candidate's term.
	if n.votesWithheldLocked() {
		resp.Term = n.currentTerm
		return resp
	}
	if req.Term > n.currentTerm {
		n.stepDownLocked(req.Term, "", "")
	}
	resp.Term = n.currentTerm
	if req.Term < n.currentTerm {
		return resp
	}
	// Up-to-dateness gate: never elect a leader whose log head is behind
	// ours — combined with quorum overlap this keeps every committed
	// entry in any elected leader's log.
	upToDate := req.LastTerm > n.lastTerm ||
		(req.LastTerm == n.lastTerm && req.LastIndex >= n.lastIndex)
	if !upToDate {
		return resp
	}
	if n.votedFor != "" && n.votedFor != req.Candidate {
		return resp // already spoken for in this term
	}
	if n.votedFor != req.Candidate {
		n.votedFor = req.Candidate
		if err := n.terms.save(termRecord{Term: n.currentTerm, VotedFor: req.Candidate}); err != nil {
			// An un-persisted grant could be forgotten and re-issued to a
			// different candidate after a crash: refuse instead.
			n.votedFor = ""
			return resp
		}
	}
	resp.Granted = true
	n.emitLocked(Event{Type: EventVoteGranted, Term: n.currentTerm, Detail: req.Candidate})
	// Granting defers our own candidacy a full timeout.
	n.resetElectionTimerLocked()
	return resp
}

// outbound is one heartbeat built under n.mu, to be sent after it is
// released.
type outbound struct {
	peer string
	req  HeartbeatRequest
	// id is the request's append sequence number when it is the peer's
	// one outstanding request that moves it, 0 otherwise.
	id uint64
}

// outboundLocked builds the request that moves f, the member at peer, on
// from the head it last reported — or, before it has, the head this node
// was elected on. Where this node's log holds that head the request
// continues from it, carrying the entries after it when move is set,
// bounded and shared with the log (published ops are never mutated).
// Where it does not — compacted away, conflicting, or past this log's
// head — a moving request names that head and sets Snapshot, and any
// other names this node's head, which a member that is behind answers
// with its own. A request that moves the member becomes f's one
// outstanding append.
func (n *Node) outboundLocked(peer string, f *follower, round uint64, move bool) outbound {
	req := HeartbeatRequest{
		Term: n.currentTerm, Leader: n.cfg.NodeID, LeaderURL: n.cfg.SelfURL,
		LastIndex: n.lastIndex, Commit: n.commitIndex, Round: round,
		Prev: n.lastIndex, PrevTerm: n.lastTerm,
	}
	switch t, ok := n.termAtLocked(f.reported); {
	case ok && t == f.reportedTerm:
		req.Prev, req.PrevTerm = f.reported, t
	case move:
		req.Prev, req.PrevTerm, req.Snapshot = f.reported, f.reportedTerm, true
	}
	if !move || (!req.Snapshot && req.Prev == n.lastIndex) {
		return outbound{peer: peer, req: req}
	}
	if !req.Snapshot {
		ops := n.ops[req.Prev-n.floor:]
		if len(ops) > maxAppendOps {
			ops = ops[:maxAppendOps]
		}
		size := 0
		for i := range ops {
			size += len(ops[i].rec)
			if size > maxAppendBytes && i > 0 {
				ops = ops[:i]
				break
			}
		}
		req.Ops = ops
	}
	n.appendSeq++
	f.inflight = n.appendSeq
	return outbound{peer: peer, req: req, id: f.inflight}
}

// heartbeatTick broadcasts the leader's liveness and log head. Each
// tick opens a numbered confirmation round; a vote quorum of responses
// echoing the round proves this node still led when the round started,
// which extends the leader lease and confirms pending quorum reads. The
// tick addresses every member whatever is outstanding to it — a hung
// append must never silence the liveness signal — and moves those with
// nothing outstanding, so it is also what retries a member whose last
// request failed or did not move it.
func (n *Node) heartbeatTick() {
	n.mu.Lock()
	peers := n.peerURLsLocked()
	if n.closed || n.role != RoleLeader || len(peers) == 0 {
		n.mu.Unlock()
		return
	}
	n.roundSeq++
	round := n.roundSeq
	n.rounds[round] = &hbRound{
		start: n.cfg.Clock.Now(),
		acks:  map[string]bool{n.cfg.SelfURL: true},
	}
	n.pruneRoundsLocked()
	out := make([]outbound, 0, len(peers))
	for _, p := range peers {
		f := n.followerLocked(p, "")
		out = append(out, n.outboundLocked(p, f, round, f.inflight == 0))
	}
	n.rearmHeartbeatLocked(n.cfg.HeartbeatInterval)
	n.unlockAndSend(out)
}

// unlockAndReplicate releases n.mu and, on a leader, sends every member
// that is not level with its head and has nothing outstanding the
// request that moves it: the entries it lacks, or the snapshot flag. It
// ends every critical section that may have published an op or folded a
// reply, which is what makes replication run at the pace of proposals
// and acks rather than of a timer. The requests echo the newest round
// already open: a reply to a request sent after round r started proves
// leadership at r's start exactly as a reply to r's own broadcast does.
// A round opened later is never named.
func (n *Node) unlockAndReplicate() {
	var small [4]outbound // a cluster this size sends from the stack
	out := small[:0]
	if n.role == RoleLeader && !n.closed {
		for _, p := range n.peerURLsLocked() {
			f := n.followerLocked(p, "")
			if f.inflight != 0 || f.paused || (f.reported == n.lastIndex && f.reportedTerm == n.lastTerm) {
				continue
			}
			out = append(out, n.outboundLocked(p, f, n.roundSeq, true))
		}
	}
	n.unlockAndSend(out)
}

// unlockAndSend releases n.mu and sends out.
func (n *Node) unlockAndSend(out []outbound) {
	term, gen, tr := n.currentTerm, n.campaignGen, n.cfg.Transport
	n.mu.Unlock()
	for _, o := range out {
		peer, id, prev := o.peer, o.id, o.req.Prev
		tr.Heartbeat(peer, o.req, func(resp HeartbeatResponse, err error) {
			n.onAppendResponse(peer, id, prev, term, gen, resp, err)
		})
	}
}

// onAppendResponse folds a follower's reported position into the
// leader's progress tracking and its echoed round into lease/read
// confirmation, then sends whatever the reply made due (to the request
// sent to peer from prev, numbered id). Like vote tallies, responses are
// guarded by both term and campaign generation so an answer delayed
// across a step-down can never be counted under resurrected authority.
func (n *Node) onAppendResponse(peer string, id, prev, term, gen uint64, resp HeartbeatResponse, err error) {
	n.mu.Lock()
	defer n.unlockAndReplicate()
	if n.closed {
		return
	}
	if err == nil && resp.Term > n.currentTerm {
		n.stepDownLocked(resp.Term, "", "")
		return
	}
	if n.role != RoleLeader || n.currentTerm != term || n.campaignGen != gen {
		return
	}
	if f := n.followers[peer]; f != nil {
		if f.inflight == id {
			f.inflight = 0
		}
		// A failed request, or one the member answered from the head it
		// was sent to (a batch it cannot write, a conflict at that index, a
		// snapshot it is still fetching), leaves the member to the timer
		// heartbeats until it next answers one: sending again at once would
		// spin at network speed against a peer that cannot move. A reply
		// from any other head — past Prev, or behind the head the leader
		// guessed — is where the next request starts, at once.
		f.paused = err != nil || (id != 0 && resp.LastIndex == prev)
	}
	if err != nil {
		return
	}
	url := resp.URL
	if url == "" {
		url = legacyFollowerKey(resp.Node)
	}
	n.noteProgressLocked(url, resp.Node, resp.LastIndex, resp.LastTerm)
	n.noteRoundAckLocked(resp.Round, url)
}

// HandleHeartbeat answers the leader's request: adopt its authority,
// append the entries it carries when they continue our log (or fetch its
// snapshot when it says it cannot continue it), learn its commit index
// as far as the request verified our log, and report our own durable log
// head back — the append's acknowledgement.
func (n *Node) HandleHeartbeat(req HeartbeatRequest) HeartbeatResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handleHeartbeatLocked(req)
}

// handleHeartbeatLocked is HandleHeartbeat with n.mu held: the one place
// a follower's log moves, for an append pushed to it or pulled.
func (n *Node) handleHeartbeatLocked(req HeartbeatRequest) HeartbeatResponse {
	if n.closed {
		return HeartbeatResponse{Term: n.currentTerm, Node: n.cfg.NodeID, URL: n.cfg.SelfURL}
	}
	// req may view a reused buffer: keep what this node holds, or clones.
	req.Leader, req.LeaderURL = own(req.Leader, n.leaderID), own(req.LeaderURL, n.leaderURL)
	if req.Term > n.currentTerm || (req.Term == n.currentTerm && n.role != RoleFollower) {
		// Higher term: plain step-down. Same term from another leader or
		// while we campaign: that leader won (or a double bootstrap is
		// self-healing); defer to it.
		n.stepDownLocked(req.Term, req.Leader, req.LeaderURL)
	}
	if req.Term == n.currentTerm {
		n.leaderID, n.leaderURL = req.Leader, req.LeaderURL
		// The stickiness window — no votes for anyone else within
		// ElectionTimeout — starts from the heartbeat we just accepted.
		n.lastLeaderContact = n.cfg.Clock.Now()
		n.resetElectionTimerLocked()
		if req.Snapshot {
			// The leader cannot continue our log from the head it names.
			// Still there: fetch its snapshot, or resume the fetch. Moved
			// since — the flag was sent before the leader heard of the move,
			// an install among them — the reply tells it where we are.
			if req.Prev == n.lastIndex && req.PrevTerm == n.lastTerm {
				n.fetchNextSnapshotChunkLocked(req.LeaderURL)
			}
		} else {
			verified := n.appendLocked(req)
			// Only the verified prefix is known to be the leader's log; a
			// divergent tail past it must never be reported committed.
			n.applyCommittedLocked(min(req.Commit, verified))
			if n.rebuilding && verified == n.lastIndex && n.lastIndex >= req.LastIndex {
				// Verified through our head, level with the leader's: the log
				// again holds everything this node could ever have acked
				// toward a commit, so the quarantine restriction retires.
				n.rebuiltLocked()
			}
		}
	}
	return HeartbeatResponse{
		Term: n.currentTerm, Node: n.cfg.NodeID, URL: n.cfg.SelfURL,
		LastIndex: n.lastIndex, LastTerm: n.lastTerm, Round: req.Round,
	}
}

// appendLocked checks req's position against our log and appends the
// entries that continue it, returning the highest index at which our
// log is now known to equal the leader's — an entry of ours with the
// leader's term at the same index, which by log matching vouches for
// the whole prefix; 0 when the request proved nothing. A Prev beyond
// our head, or different terms at an index both logs hold, append
// nothing: the reply's head is where the leader continues from.
// Entries we already hold are skipped, so a duplicated, reordered or
// delayed delivery changes nothing; a failed journal write appends
// nothing and the reply carries the old head.
func (n *Node) appendLocked(req HeartbeatRequest) (verified uint64) {
	if req.Prev > n.lastIndex {
		return 0
	}
	if t, ok := n.termAtLocked(req.Prev); ok {
		if t != req.PrevTerm {
			return 0
		}
		verified = req.Prev
	}
	ops := req.Ops
	for len(ops) > 0 && ops[0].Index <= n.lastIndex {
		if t, ok := n.termAtLocked(ops[0].Index); ok {
			if t != ops[0].Term {
				return verified
			}
			verified = ops[0].Index
		}
		ops = ops[1:]
	}
	if len(ops) == 0 || verified != n.lastIndex || ops[0].Index != n.lastIndex+1 {
		// Nothing new, or (malformed) entries that do not start at a head
		// this request verified.
		return verified
	}
	if n.applyReplicatedLocked(ops) == nil {
		verified = n.lastIndex
	}
	return verified
}

// legacyFollowerKey tracks a peer that did not announce a URL. Such a
// peer can never satisfy URL-keyed membership quorums, but its progress
// still shows in status output.
func legacyFollowerKey(node string) string { return "node:" + node }

// followerLocked returns (creating if needed) the progress record for
// the peer at url.
func (n *Node) followerLocked(url, id string) *follower {
	f := n.followers[url]
	if f == nil {
		f = &follower{reported: n.lastIndex, reportedTerm: n.lastTerm}
		n.followers[url] = f
	}
	if id != "" {
		f.id = id
	}
	return f
}

// noteProgressLocked records a peer's announced durable head, which the
// next request to it starts from, and, when the head term-verifies
// against our own log (or is already below the commit index), counts it
// toward pending write quorums. The verification is what makes quorum
// counting sound: a divergent follower's raw index must never ack a
// write it does not actually hold.
func (n *Node) noteProgressLocked(url, id string, idx, idxTerm uint64) {
	f := n.followerLocked(url, id)
	f.lastSeen = n.cfg.Clock.Now()
	f.reported, f.reportedTerm = idx, idxTerm
	verified := idx <= n.commitIndex
	if !verified {
		t, ok := n.termAtLocked(idx)
		verified = ok && t == idxTerm
	}
	if verified && idx > f.match {
		f.match = idx
		n.recomputeCommitLocked()
	}
}

// recomputeCommitLocked advances commitIndex to the highest
// current-term entry replicated on a write quorum — a quorum of the
// active configuration, and of BOTH configurations while a joint entry
// is in flight — applies what it newly covers, then wakes waiting
// writers. Newly committed write IDs ride the commit event so the
// harness can maintain its acked ledger without re-entering the node.
func (n *Node) recomputeCommitLocked() {
	if n.role != RoleLeader {
		return
	}
	matchedAt := func(idx uint64) func(string) bool {
		return func(url string) bool {
			if url == n.cfg.SelfURL {
				return true // self: everything in ops is locally fsynced
			}
			f := n.followers[url]
			return f != nil && f.match >= idx
		}
	}
	newCommit := n.commitIndex
	for idx := n.lastIndex; idx > n.commitIndex; idx-- {
		t, ok := n.termAtLocked(idx)
		if !ok || t != n.currentTerm {
			// Entries of older terms never commit by counting; they commit
			// implicitly when a current-term entry above them does.
			break
		}
		if n.config.WriteSatisfied(n.cfg.Quorum, matchedAt(idx)) {
			newCommit = idx
			break
		}
	}
	if newCommit <= n.commitIndex {
		return
	}
	var ids []string
	for i := max(n.commitIndex, n.floor) + 1; i <= newCommit; i++ {
		if op := n.ops[i-n.floor-1]; op.Kind == opWrite {
			ids = append(ids, op.ID)
		}
	}
	n.applyCommittedLocked(newCommit)
	n.emitLocked(Event{Type: EventCommit, Term: n.currentTerm, Index: newCommit, IDs: ids})
	n.commitCond.Broadcast()
	// A joint entry that just committed hands off to its final C(new)
	// entry; a committed C(new) that excludes this leader demotes it.
	n.maybeFinishReconfigureLocked()
}

// schedulePullLocked (re)arms the pull timer to fire after d, on a node
// the leader does not address. pullTimer is non-nil exactly while a pull
// is scheduled.
func (n *Node) schedulePullLocked(d time.Duration) {
	if n.closed || n.role == RoleLeader || n.clusteredLocked() {
		return
	}
	if n.pullTimer != nil {
		n.pullTimer.Stop()
	}
	n.pullTimer = n.cfg.Clock.AfterFunc(d, n.pullTick)
}

// pullTick asks the current leader for the append that moves this node
// on from its head — if the leader does not address it: a pure-pull
// follower, a joiner, a removed member. Nothing else moves such a node,
// so its timer re-arms at PullInterval whatever the outcome. A voting
// member never pulls: the leader's appends alone catch it up. One pull
// in flight at a time.
func (n *Node) pullTick() {
	n.mu.Lock()
	n.pullTimer = nil
	if n.closed || n.role == RoleLeader || n.clusteredLocked() {
		n.mu.Unlock()
		return
	}
	n.schedulePullLocked(n.cfg.PullInterval)
	leader := n.leaderURL
	if n.pullInFlight || leader == "" || leader == n.cfg.SelfURL {
		n.mu.Unlock()
		return
	}
	n.pullInFlight = true
	req := PullRequest{
		From: n.lastIndex, FromTerm: n.lastTerm,
		Node: n.cfg.NodeID, URL: n.cfg.SelfURL, Term: n.currentTerm,
	}
	tr := n.cfg.Transport
	n.mu.Unlock()

	tr.Pull(leader, req, func(resp PullResponse, err error) {
		n.onPullResponse(leader, resp, err)
	})
}

// onPullResponse follows a NotLeader answer to the leader it names, or
// takes the append the leader answered with as one it pushed
// (handleHeartbeatLocked) — whose term and position checks drop an
// answer a newer leader's appends have overtaken — and pulls again at
// once while that moved this node but left it behind the leader's head.
func (n *Node) onPullResponse(leader string, resp PullResponse, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pullInFlight = false
	if err != nil || n.closed || n.role == RoleLeader {
		return
	}
	if resp.NotLeader {
		if resp.LeaderURL != "" && resp.LeaderURL != n.cfg.SelfURL && resp.LeaderURL != leader {
			n.leaderURL = resp.LeaderURL
			n.schedulePullLocked(0)
		}
		return
	}
	a := resp.Append
	if a.LeaderURL == "" {
		a.LeaderURL = leader // a standalone leader announces no URL of its own
	}
	head := n.lastIndex
	n.handleHeartbeatLocked(a)
	if head < n.lastIndex && n.lastIndex < a.LastIndex {
		n.schedulePullLocked(0)
	}
}

// applyReplicatedLocked journals ops received from the leader and
// appends them to the log, monotonically: an op at or below lastIndex is
// already held (a retried delivery) and is skipped, never appended
// twice. The batch goes through the same stage-then-publish sequence as
// the leader's accept — fsynced, once for the whole batch, before any of
// it becomes visible in n.ops/n.lastIndex — so if this node later wins
// an election it never serves an op it could still lose, and a failed
// batch is simply sent again. The ops reach the service when a commit
// index covers them (applyCommittedLocked). ops may view a reused buffer:
// an op is kept as a copy of its record, and read back from it.
func (n *Node) applyReplicatedLocked(ops []Op) error {
	for len(ops) > 0 && ops[0].Index <= n.lastIndex {
		ops = ops[1:]
	}
	if len(ops) == 0 {
		return nil
	}
	for i := range ops {
		if want := n.lastIndex + 1 + uint64(i); ops[i].Index != want {
			return fmt.Errorf("cluster: gap in op stream: want %d, got %d", want, ops[i].Index)
		}
	}
	if err := n.stageLocked(ops...); err != nil {
		return err
	}
	for i := range ops {
		n.publishLocked(n.keepLocked(func(b []byte) []byte { return append(b, ops[i].rec...) }))
	}
	return nil
}

// HandlePull answers a node the leader does not address with the append
// it would push to it from the head the puller reports: the same entries,
// bounds and snapshot flag (outboundLocked), which the puller takes as a
// pushed one. The head is noted as the puller's progress.
func (n *Node) HandlePull(req PullRequest) PullResponse {
	n.mu.Lock()
	defer n.unlockAndReplicate() // the position may have committed a joint entry
	if req.Term > n.currentTerm {
		n.stepDownLocked(req.Term, "", "")
	}
	if n.closed || n.role != RoleLeader {
		return PullResponse{NotLeader: true, LeaderURL: n.leaderURL}
	}
	key := req.URL
	if key == "" {
		key = legacyFollowerKey(req.Node)
	}
	// Built for a record of its own: the answer is not the puller's
	// outstanding append, which a joiner the leader pushes to may have.
	resp := PullResponse{Append: n.outboundLocked(key, &follower{reported: req.From, reportedTerm: req.FromTerm}, 0, true).req}
	n.noteProgressLocked(key, req.Node, req.From, req.FromTerm)
	return resp
}

// snapStream is the leader-side frozen snapshot transfer: the full
// payload is cut once, identified, and served chunk by chunk, so a
// multi-round transfer reads one immutable byte string no matter how
// the live state moves underneath it.
type snapStream struct {
	id        string
	data      []byte
	lastIndex uint64
}

// HandleSnapshotChunk serves one chunk of the leader's frozen snapshot
// stream. A request naming the cached stream reads from it even if the
// log has since moved (resumability beats freshness — the installer is
// sent the rest after); any other request freezes a fresh stream.
func (n *Node) HandleSnapshotChunk(req SnapshotChunkRequest) SnapshotChunkResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := SnapshotChunkResponse{Term: n.currentTerm}
	if n.closed || n.role != RoleLeader {
		resp.NotLeader = true
		resp.LeaderURL = n.leaderURL
		return resp
	}
	// Serve the cached stream when the request names it (a resume) or
	// the cache is still current; otherwise freeze a fresh one.
	cache := n.snapCache
	if cache == nil || (req.ID != cache.id && cache.lastIndex != n.applied) {
		// The stream is the node's snapshot at its applied index (not the
		// compaction floor): installers jump straight to the committed
		// present and are appended to from there, which covers both catch-up
		// past the floor and conflict resolution with one mechanism.
		data := n.appendSnapshotLocked(nil)
		term, _ := n.termAtLocked(n.applied)
		cache = &snapStream{
			id:        fmt.Sprintf("%d.%d.%08x", term, n.applied, crc32.ChecksumIEEE(data)),
			data:      data,
			lastIndex: n.applied,
		}
		n.snapCache = cache
	}
	off := req.Offset
	if req.ID != cache.id || off > uint64(len(cache.data)) {
		off = 0 // unknown stream or absurd offset: restart the transfer
	}
	end := off + uint64(n.cfg.SnapshotChunkBytes)
	if end > uint64(len(cache.data)) {
		end = uint64(len(cache.data))
	}
	chunk := cache.data[off:end]
	resp.ID = cache.id
	resp.Total = uint64(len(cache.data))
	resp.Offset = off
	resp.Data = chunk
	resp.CRC = crc32.ChecksumIEEE(chunk)
	return resp
}

// fetchNextSnapshotChunkLocked requests the next chunk of the leader's
// snapshot stream, resuming at whatever this node has buffered. Caller
// holds n.mu; the lock is released around the transport call and
// re-acquired before returning (the n.mu-never-held-across-transport
// rule).
func (n *Node) fetchNextSnapshotChunkLocked(leader string) {
	if n.snapInFlight {
		return
	}
	n.snapInFlight = true
	req := SnapshotChunkRequest{ID: n.snapID, Offset: uint64(len(n.snapBuf))}
	tr := n.cfg.Transport
	n.mu.Unlock()
	tr.FetchSnapshotChunk(leader, req, func(r SnapshotChunkResponse, err error) {
		n.onSnapshotChunk(leader, r, err)
	})
	n.mu.Lock()
}

// snapRetryLimit bounds CRC-mismatch/gap re-requests per transfer so a
// persistently corrupting link degrades to a fresh transfer at the
// leader's next snapshot-flagged append instead of a tight request loop.
const snapRetryLimit = 32

// onSnapshotChunk verifies and buffers one snapshot chunk, requesting
// the next until the stream is complete, then installs it wholesale. A
// failed or interrupted transfer keeps the buffer: the next
// snapshot-flagged append resumes from the buffered offset with the same
// stream ID.
func (n *Node) onSnapshotChunk(leader string, resp SnapshotChunkResponse, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.snapInFlight = false
	if err != nil || n.closed || resp.NotLeader {
		return
	}
	if resp.Term > n.currentTerm {
		n.stepDownLocked(resp.Term, "", "")
	}
	if n.role == RoleLeader || n.leaderURL != leader {
		return // stale response: authority moved while the fetch flew
	}
	if resp.ID != n.snapID {
		// The leader froze a different stream (fresh transfer, or it
		// rebuilt while we were away): restart from its offset zero.
		if resp.Offset != 0 {
			n.snapID, n.snapBuf, n.snapRetries = "", nil, 0
			n.fetchNextSnapshotChunkLocked(leader)
			return
		}
		n.snapID, n.snapBuf, n.snapRetries = resp.ID, nil, 0
	}
	switch {
	case crc32.ChecksumIEEE(resp.Data) != resp.CRC:
		// Corrupt chunk: drop it, re-request the same offset.
		n.snapRetries++
	case resp.Offset != uint64(len(n.snapBuf)):
		// Duplicate or gap: re-request at our buffered position.
		n.snapRetries++
	default:
		n.snapBuf = append(n.snapBuf, resp.Data...)
		n.snapRetries = 0
	}
	if n.snapRetries > snapRetryLimit {
		n.snapID, n.snapBuf, n.snapRetries = "", nil, 0
		return // give up this transfer; the next flagged append starts a fresh one
	}
	if uint64(len(n.snapBuf)) < resp.Total || resp.Total == 0 {
		n.fetchNextSnapshotChunkLocked(leader)
		return
	}
	rec := n.snapBuf // the snapshot record, which becomes the oplog's first
	n.snapID, n.snapBuf, n.snapRetries = "", nil, 0
	var pay nodeSnapshot
	if json.Unmarshal(rec, &pay) != nil {
		return
	}
	if n.installSnapshotLocked(rec, pay) {
		n.schedulePullLocked(0) // a node the leader does not address pulls on at once
	}
}

// installSnapshotLocked installs a fully transferred leader snapshot,
// the record rec read as pay, replacing whatever divergent or stale
// history this node held. The oplog is rewritten to rec BEFORE anything
// else changes: a
// rewrite is atomic, so a crash recovers the old consistent state or
// the new one, and a rewrite that fails leaves the node on the old one,
// disk, memory and replica alike, to try again at the leader's next
// flagged append (it reports false, and a puller does not pull at once: a
// full disk must not turn into a stream of snapshot transfers). The
// replica is rebuilt after, from committed state only, so there is
// nothing to undo.
func (n *Node) installSnapshotLocked(rec []byte, pay nodeSnapshot) bool {
	if n.log != nil {
		if err := n.rewriteLogLocked(rec, len(pay.State), nil); err != nil {
			return false
		}
	}
	n.adoptSnapshotLocked(&pay)
	if pay.Config != nil {
		n.membershipChangedLocked()
	}
	// A quarantined node is not rebuilt yet: the snapshot holds only what
	// the leader had committed, not every entry this node may have acked.
	// The appends that follow retire the restriction once they reach the
	// leader's head.
	n.emitLocked(Event{Type: EventInstallSnapshot, Term: n.currentTerm, Index: n.lastIndex})
	return true
}
