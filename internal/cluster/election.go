package cluster

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/wal"
)

// This file is the event-driven election and replication engine. There
// are no long-lived goroutine loops: everything happens in timer
// callbacks (election timeout, heartbeat tick, pull tick), transport
// done-callbacks, and the Handle* RPC methods, all serialized on n.mu.
// One rule keeps it deadlock-free across both the HTTP transport and
// the deterministic in-process harness: n.mu is NEVER held across a
// transport call — requests are built under the lock, sent after
// releasing it.

// resetElectionTimerLocked (re)arms the election timeout with a fresh
// deterministic jitter draw: base + uniform[0, base). Armed only for
// voting members of a multi-node configuration — a standalone leader, a
// legacy pure-pull follower, a still-joining node and a removed member
// must never campaign.
func (n *Node) resetElectionTimerLocked() {
	if n.electionTimer != nil {
		n.electionTimer.Stop()
		n.electionTimer = nil
	}
	if !n.clusteredLocked() || n.closed || n.role == RoleLeader {
		return
	}
	base := n.cfg.ElectionTimeout
	jitter := time.Duration(detrand.NewKey(n.cfg.Seed, "cluster.election").
		Str(n.cfg.NodeID).Uint(n.drawCount).Intn(int64(base)))
	n.drawCount++
	n.electionTimer = n.cfg.Clock.AfterFunc(base+jitter, n.electionTimerFired)
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
	// follower positions is trusted across a term change.
	n.followers = make(map[string]*follower)
	// Fresh lease state: a new leader holds no lease until its own
	// heartbeat rounds earn one.
	n.rounds = make(map[uint64]*hbRound)
	n.confirmedRound, n.prunedRound = n.roundSeq, n.roundSeq
	n.leaseUntil = time.Time{}
	n.snapCache = nil
	if len(n.peerURLsLocked()) > 0 {
		// Commit barrier: commitIndex only ever advances across
		// current-term entries (counting replicas of an old-term entry is
		// the classic Raft figure-8 unsafety), so append a no-op of this
		// term; when it reaches quorum, everything inherited beneath it
		// commits with it.
		noop := Op{Index: n.lastIndex + 1, Term: n.currentTerm, Kind: opNoop}
		if err := n.stageLocked(noop); err == nil {
			n.publishLocked(noop)
		}
		n.heartbeatTimer = n.cfg.Clock.AfterFunc(0, n.heartbeatTick)
	}
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
		wasLeader := n.role == RoleLeader
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
		if wasLeader {
			// Writers parked in WaitCommitted must fail over, and this node
			// must resume replicating from whoever deposed it.
			n.schedulePullLocked(n.cfg.PullInterval)
		}
		n.commitCond.Broadcast()
	}
	n.resetElectionTimerLocked()
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

// heartbeatTick broadcasts the leader's liveness and log head. Each
// tick opens a numbered confirmation round; a vote quorum of responses
// echoing the round proves this node still led when the round started,
// which extends the leader lease and confirms pending quorum reads.
func (n *Node) heartbeatTick() {
	n.mu.Lock()
	peers := n.peerURLsLocked()
	if n.closed || n.role != RoleLeader || len(peers) == 0 {
		n.mu.Unlock()
		return
	}
	term, gen := n.currentTerm, n.campaignGen
	n.roundSeq++
	round := n.roundSeq
	n.rounds[round] = &hbRound{
		start: n.cfg.Clock.Now(),
		acks:  map[string]bool{n.cfg.SelfURL: true},
	}
	n.pruneRoundsLocked()
	req := HeartbeatRequest{
		Term: term, Leader: n.cfg.NodeID, LeaderURL: n.cfg.SelfURL,
		LastIndex: n.lastIndex, Commit: n.commitIndex, Round: round,
	}
	n.heartbeatTimer = n.cfg.Clock.AfterFunc(n.cfg.HeartbeatInterval, n.heartbeatTick)
	tr := n.cfg.Transport
	n.mu.Unlock()

	for _, p := range peers {
		tr.Heartbeat(p, req, func(resp HeartbeatResponse, err error) {
			n.onHeartbeatResponse(term, gen, resp, err)
		})
	}
}

// onHeartbeatResponse folds a follower's reported position into the
// leader's progress tracking and its echoed round into lease/read
// confirmation. Like vote tallies, responses are guarded by both term
// and campaign generation so an answer delayed across a step-down can
// never be counted under resurrected authority.
func (n *Node) onHeartbeatResponse(term, gen uint64, resp HeartbeatResponse, err error) {
	if err != nil {
		return
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
	if n.role != RoleLeader || n.currentTerm != term || n.campaignGen != gen {
		return
	}
	url := resp.URL
	if url == "" {
		url = legacyFollowerKey(resp.Node)
	}
	n.noteProgressLocked(url, resp.Node, resp.LastIndex, resp.LastTerm)
	n.noteRoundAckLocked(resp.Round, url)
}

// HandleHeartbeat answers the leader's announcement: adopt its
// authority, learn its commit index, and report our own durable log
// head back.
func (n *Node) HandleHeartbeat(req HeartbeatRequest) HeartbeatResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return HeartbeatResponse{Term: n.currentTerm, Node: n.cfg.NodeID, URL: n.cfg.SelfURL}
	}
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
		if req.Commit > n.commitIndex {
			n.commitIndex = min(req.Commit, n.lastIndex)
		}
		if req.LastIndex > n.lastIndex {
			// Behind: pull now instead of waiting out the poll interval.
			n.schedulePullLocked(0)
		}
	}
	return HeartbeatResponse{
		Term: n.currentTerm, Node: n.cfg.NodeID, URL: n.cfg.SelfURL,
		LastIndex: n.lastIndex, LastTerm: n.lastTerm, Round: req.Round,
	}
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
		f = &follower{}
		n.followers[url] = f
	}
	if id != "" {
		f.id = id
	}
	return f
}

// noteProgressLocked records a peer's announced durable position and,
// when the position term-verifies against our own log (or is already
// below the commit index), counts it toward pending write quorums. The
// verification is what makes quorum counting sound: a divergent
// follower's raw index must never ack a write it does not actually
// hold.
func (n *Node) noteProgressLocked(url, id string, idx, idxTerm uint64) {
	f := n.followerLocked(url, id)
	f.lastSeen = n.cfg.Clock.Now()
	f.reported = idx
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
// is in flight — then wakes waiting writers. Newly committed write IDs
// ride the commit event so the harness can maintain its acked ledger
// without re-entering the node.
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
	n.commitIndex = newCommit
	n.emitLocked(Event{Type: EventCommit, Term: n.currentTerm, Index: newCommit, IDs: ids})
	n.commitCond.Broadcast()
	// A joint entry that just committed hands off to its final C(new)
	// entry; a committed C(new) that excludes this leader demotes it.
	n.maybeFinishReconfigureLocked()
	// Pipelined proposals (ProposeWrite without the blocking wait) only
	// reach commit==head here, never inside accept — compact now or the
	// oplog grows without bound under that traffic. Best effort: a
	// failure leaves the log long, and the next accept retries.
	_ = n.maybeCompactLocked()
}

// schedulePullLocked (re)arms the pull timer to fire after d.
func (n *Node) schedulePullLocked(d time.Duration) {
	if n.closed || n.role == RoleLeader {
		return
	}
	if n.pullTimer != nil {
		n.pullTimer.Stop()
	}
	n.pullTimer = n.cfg.Clock.AfterFunc(d, n.pullTick)
}

// pullTick asks the current leader for the op tail after our head. One
// pull in flight at a time; the steady-state timer re-arms regardless
// so a lost response cannot stall replication.
func (n *Node) pullTick() {
	n.mu.Lock()
	if n.closed || n.role == RoleLeader {
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

// onPullResponse applies a pulled tail, or reacts to the refusal: chase
// a new leader, or fetch the leader's snapshot when our position was
// compacted away or conflicts.
func (n *Node) onPullResponse(leader string, resp PullResponse, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pullInFlight = false
	if err != nil || n.closed || n.role == RoleLeader {
		return
	}
	if resp.Term > n.currentTerm {
		n.stepDownLocked(resp.Term, "", resp.LeaderURL)
	}
	if resp.NotLeader {
		if resp.LeaderURL != "" && resp.LeaderURL != n.cfg.SelfURL && resp.LeaderURL != leader {
			n.leaderURL = resp.LeaderURL
			n.schedulePullLocked(0)
		}
		return
	}
	if resp.SnapshotNeeded {
		// Resume (or start) the chunked snapshot install: the request
		// names the stream and offset already buffered, so a transfer
		// interrupted by a dropped link continues where it stopped.
		n.fetchNextSnapshotChunkLocked(leader)
		return
	}
	if aerr := n.applyReplicatedLocked(resp.Ops); aerr != nil {
		return
	}
	if resp.Commit > n.commitIndex {
		n.commitIndex = min(resp.Commit, n.lastIndex)
	}
	if n.rebuilding && resp.Term == n.currentTerm && n.lastIndex >= resp.LastIndex {
		// Caught up to the head the current leader advertised: the log —
		// every pulled op fsynced before publish — again contains every
		// entry this node could ever have acked toward a commit (the
		// leader's log is complete with respect to committed entries), so
		// the quarantine restriction can retire.
		n.rebuiltLocked()
	}
	if n.lastIndex < resp.LastIndex {
		// Still behind (bounded batch or races): keep draining.
		n.schedulePullLocked(0)
	}
}

// applyReplicatedLocked journals and applies pulled ops, monotonically:
// an op at or below lastIndex was already applied (a retried pull after
// a crash mid-batch) and is skipped, never double-applied. Each op goes
// through the same stage-then-publish sequence as the leader's accept —
// fsynced and applied before it becomes visible in n.ops/n.lastIndex —
// so if this node later wins an election, HandlePull never serves an op
// the node could still lose, and a failed op is simply re-pulled.
func (n *Node) applyReplicatedLocked(ops []Op) error {
	for _, op := range ops {
		if op.Index <= n.lastIndex {
			continue
		}
		if op.Index != n.lastIndex+1 {
			return fmt.Errorf("cluster: gap in op stream: have %d, got %d", n.lastIndex, op.Index)
		}
		if err := n.stageLocked(op); err != nil {
			return err
		}
		n.publishLocked(op)
		if n.sinceSnap >= n.cfg.SnapshotEvery {
			if err := n.compactLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// HandlePull serves the op tail after the puller's position — but only
// when the position term-verifies against our log (log matching by
// induction: if the puller's head matches ours, its whole prefix does).
// A compacted-away or conflicting position gets SnapshotNeeded, forcing
// the puller onto our history wholesale.
func (n *Node) HandlePull(req PullRequest) PullResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term > n.currentTerm {
		n.stepDownLocked(req.Term, "", "")
	}
	resp := PullResponse{Term: n.currentTerm, LastIndex: n.lastIndex, Commit: n.commitIndex}
	if n.closed || n.role != RoleLeader {
		resp.NotLeader = true
		resp.LeaderURL = n.leaderURL
		return resp
	}
	pullerKey := req.URL
	if pullerKey == "" && req.Node != "" {
		pullerKey = legacyFollowerKey(req.Node)
	}
	if pullerKey != "" {
		f := n.followerLocked(pullerKey, req.Node)
		f.lastSeen = n.cfg.Clock.Now()
		f.reported = req.From
	}
	t, ok := n.termAtLocked(req.From)
	if !ok || (req.From > 0 && t != req.FromTerm) {
		resp.SnapshotNeeded = true
		return resp
	}
	if req.From < n.lastIndex {
		resp.Ops = append([]Op(nil), n.ops[req.From-n.floor:]...)
	}
	if pullerKey != "" {
		// The puller's durable head matches our log through From.
		n.noteProgressLocked(pullerKey, req.Node, req.From, req.FromTerm)
	}
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

// snapPayload is the streamed snapshot content: the node's effective
// write set at its current head (not the compaction floor), plus the
// voting configuration — installers jump straight to the present and
// resume pulling from there, which covers both catch-up past the floor
// and conflict resolution with one mechanism.
type snapPayload struct {
	LastIndex   uint64      `json:"last_index"`
	LastTerm    uint64      `json:"last_term"`
	State       []Op        `json:"state"`
	Config      *Membership `json:"config,omitempty"`
	ConfigIndex uint64      `json:"config_index,omitempty"`
}

// HandleSnapshotChunk serves one chunk of the leader's frozen snapshot
// stream. A request naming the cached stream reads from it even if the
// log has since moved (resumability beats freshness — the installer
// pulls the rest after); any other request freezes a fresh stream.
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
	if cache == nil || (req.ID != cache.id && cache.lastIndex != n.lastIndex) {
		payload := snapPayload{
			LastIndex: n.lastIndex, LastTerm: n.lastTerm,
			State: append([]Op(nil), n.state...),
		}
		if n.configIndex > 0 {
			cfg := n.config
			payload.Config = &cfg
			payload.ConfigIndex = n.configIndex
		}
		data, err := json.Marshal(payload)
		if err != nil {
			resp.NotLeader = true // unservable; the puller will retry
			return resp
		}
		cache = &snapStream{
			id:        fmt.Sprintf("%d.%d.%08x", n.lastTerm, n.lastIndex, crc32.ChecksumIEEE(data)),
			data:      data,
			lastIndex: n.lastIndex,
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
// persistently corrupting link degrades to retry-via-pull instead of a
// tight request loop.
const snapRetryLimit = 32

// onSnapshotChunk verifies and buffers one snapshot chunk, requesting
// the next until the stream is complete, then installs it wholesale. A
// failed or interrupted transfer keeps the buffer: the next
// SnapshotNeeded pull resumes from the buffered offset with the same
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
		return // give up this transfer; the next pull starts a fresh one
	}
	if uint64(len(n.snapBuf)) < resp.Total || resp.Total == 0 {
		n.fetchNextSnapshotChunkLocked(leader)
		return
	}
	var pay snapPayload
	if uerr := json.Unmarshal(n.snapBuf, &pay); uerr != nil {
		n.snapID, n.snapBuf, n.snapRetries = "", nil, 0
		return
	}
	n.snapID, n.snapBuf, n.snapRetries = "", nil, 0
	n.installSnapshotLocked(pay)
	n.schedulePullLocked(0)
}

// installSnapshotLocked installs a fully transferred leader snapshot,
// replacing whatever divergent or stale history this node held. The new
// snapshot (with a bumped epoch) is persisted BEFORE the oplog is
// truncated, so a crash anywhere in between recovers either the old
// consistent state or the new one — never a hybrid (recovery discards
// oplog records from dead epochs).
func (n *Node) installSnapshotLocked(pay snapPayload) {
	if err := n.svc.Reset(); err != nil {
		return
	}
	if err := n.replayState(pay.State); err != nil {
		n.rollbackServiceLocked()
		return
	}
	n.lastIndex = pay.LastIndex
	n.lastTerm = pay.LastTerm
	n.floor = pay.LastIndex
	n.floorTerm = pay.LastTerm
	n.ops = nil
	n.state = append([]Op(nil), pay.State...)
	if pay.Config != nil {
		n.config = *pay.Config
		n.configIndex = pay.ConfigIndex
		n.resetElectionTimerLocked()
	}
	if n.commitIndex > n.lastIndex {
		n.commitIndex = n.lastIndex
	}
	n.sinceSnap = 0
	n.epoch++
	durable := n.log == nil
	if n.log != nil {
		payload, merr := json.Marshal(n.snapshotLocked())
		if merr == nil {
			if werr := wal.WriteSnapshotFS(n.cfg.FS, n.snapPath(), payload, wal.DefaultFileMode); werr == nil {
				_ = n.log.Truncate()
				durable = true
			}
		}
	}
	if durable {
		// The installed state covers the leader's whole log at freeze
		// time — every committed entry included — and is on disk, so a
		// quarantined node is rebuilt.
		n.rebuiltLocked()
	}
	n.emitLocked(Event{Type: EventInstallSnapshot, Term: n.currentTerm, Index: n.lastIndex})
}
