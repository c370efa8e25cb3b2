package cluster

import (
	"fmt"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// Linearizable reads. Every read mode answers the same question — "is
// this replica's state at least as new as everything acked before the
// read began?" — with a different cost:
//
//   - local: no check at all. Any node serves its replica; a deposed
//     leader or lagging follower returns stale data. This is the
//     consistency surface the probe exists to measure.
//   - lease: the leader serves locally while it holds a time lease.
//     Each heartbeat round confirmed by a vote quorum proves the node
//     still led when the round STARTED (a round is confirmed by replies
//     to its own broadcast or to any append sent after it — those echo
//     the newest round open when they were sent), so leadership is
//     guaranteed
//     until roundStart + ElectionTimeout − 2·ClockSkew: followers
//     refuse to elect anyone else within ElectionTimeout of leader
//     contact (stickiness in HandleVote), one ClockSkew allowance
//     covers the leader's own clock and one covers each voter's.
//   - quorum: read-index. The read captures the current round sequence
//     and waits for a round that STARTED AFTER the read arrived to be
//     quorum-confirmed — proof of leadership at (not just before) read
//     time, with no clock assumption at all. Costs one heartbeat RTT;
//     an immediate round is kicked so the wait is the network's, not
//     the tick period's.
//
// Both non-local modes serve the leader's replica, which holds only
// committed ops, once its election barrier has committed (before that,
// its commit index may lag writes an earlier leader acked): a read
// returns every write acked before it began and none that can be lost.
// Under partition both block and then fail rather than serve stale
// data: reads choose C over A, exactly the trade the DESIGN doc
// documents.

// ReadMode selects the consistency level of a cluster read.
type ReadMode string

const (
	// ReadLocal serves the local replica with no leadership check.
	ReadLocal ReadMode = "local"
	// ReadLease serves the leader's replica under a clock-skew-bounded
	// leader lease, falling back to a quorum round when the lease is
	// stale.
	ReadLease ReadMode = "lease"
	// ReadQuorum confirms leadership with a post-read-arrival heartbeat
	// round before serving.
	ReadQuorum ReadMode = "quorum"
)

// ParseReadMode validates a read-mode string; empty means ReadLocal.
func ParseReadMode(s string) (ReadMode, error) {
	switch ReadMode(s) {
	case "":
		return ReadLocal, nil
	case ReadLocal, ReadLease, ReadQuorum:
		return ReadMode(s), nil
	default:
		return "", fmt.Errorf("cluster: read mode must be %q, %q or %q, got %q",
			ReadLocal, ReadLease, ReadQuorum, s)
	}
}

// hbRound tracks one heartbeat broadcast's acknowledgements, keyed by
// member URL (self pre-acked).
type hbRound struct {
	start time.Time
	acks  map[string]bool
}

// leaseDurationLocked is how long a quorum-confirmed round extends the
// lease past its start. Non-positive disables leases entirely.
func (n *Node) leaseDurationLocked() time.Duration {
	return n.cfg.ElectionTimeout - 2*n.cfg.ClockSkew
}

// leaseValidLocked reports whether the leader currently holds a live
// lease.
func (n *Node) leaseValidLocked() bool {
	return n.role == RoleLeader && n.leaseDurationLocked() > 0 &&
		n.cfg.Clock.Now().Before(n.leaseUntil)
}

// noteRoundAckLocked folds one echoed heartbeat round into lease and
// read-index confirmation. Caller holds n.mu and has already verified
// role, term and campaign generation.
func (n *Node) noteRoundAckLocked(round uint64, url string) {
	if round == 0 || round <= n.confirmedRound {
		return
	}
	r := n.rounds[round]
	if r == nil {
		return
	}
	r.acks[url] = true
	if !n.config.VoteSatisfied(func(u string) bool { return r.acks[u] }) {
		return
	}
	// A vote quorum confirmed this round: no other leader could have
	// existed when it started (their election would have needed an
	// overlapping quorum), so leadership held at r.start.
	n.confirmedRound = round
	if d := n.leaseDurationLocked(); d > 0 {
		if until := r.start.Add(d); until.After(n.leaseUntil) {
			n.leaseUntil = until
		}
	}
	n.pruneRoundsLocked()
	n.commitCond.Broadcast() // wake quorum-read tickets
}

// pruneRoundsLocked forgets rounds that can no longer confirm anything:
// everything at or below the confirmed round, and anything so old that
// its responses must be from a dead episode.
func (n *Node) pruneRoundsLocked() {
	floor := n.confirmedRound
	if n.roundSeq > 32 && n.roundSeq-32 > floor {
		floor = n.roundSeq - 32
	}
	for n.prunedRound < floor {
		n.prunedRound++
		delete(n.rounds, n.prunedRound)
	}
}

// ReadTicket is the non-blocking half of a linearizable read: obtained
// from StartRead, it becomes ready once the required leadership proof
// exists. The deterministic harness polls Ready from its event loop;
// the HTTP path just calls Wait.
type ReadTicket struct {
	n *Node
	// Used is the mode that will actually vouch for the read: the
	// requested mode, except that a stale lease downgrades to a quorum
	// round.
	Used ReadMode
	term uint64
	gen  uint64
	// need is the round whose confirmation proves leadership at read
	// arrival; 0 means the ticket was ready at creation.
	need     uint64
	deadline time.Time
}

// StartRead begins a read at the requested consistency mode. Local
// reads are ready immediately on any node; lease reads are ready
// immediately on a leader with a live lease whose election barrier has
// committed; anything else requires leadership and returns a ticket
// that ripens when a heartbeat round started after this call is
// confirmed by a vote quorum and the barrier has committed. Non-leaders
// get *NotLeaderError (except in local mode) so clients can follow the
// leader hint.
func (n *Node) StartRead(mode ReadMode) (*ReadTicket, error) {
	if mode == "" || mode == ReadLocal {
		return &ReadTicket{n: n, Used: ReadLocal}, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("cluster: node is closed")
	}
	if n.role != RoleLeader {
		return nil, &NotLeaderError{Leader: n.leaderURL}
	}
	if mode == ReadLease && n.leaseValidLocked() && n.commitIndex >= n.barrier {
		return &ReadTicket{n: n, Used: ReadLease}, nil
	}
	// Quorum path (including lease fallback): prove leadership with a
	// round that starts after this instant.
	t := &ReadTicket{
		n: n, Used: ReadQuorum, term: n.currentTerm, gen: n.campaignGen,
		deadline: n.cfg.Clock.Now().Add(n.cfg.QuorumTimeout),
	}
	if len(n.peerURLsLocked()) == 0 {
		return t, nil // single-member configuration: the leader IS the quorum
	}
	t.need = n.roundSeq + 1
	// Kick an immediate heartbeat so the proof costs one RTT, not one
	// tick period. The tick re-arms the steady-state timer itself.
	n.rearmHeartbeatLocked(0)
	return t, nil
}

// Ready polls the ticket: (true, nil) once the read may be served,
// (false, nil) while the proof is still in flight, and an error when it
// can never ripen (leadership lost, node closed, or QuorumTimeout
// passed — the blocked-not-stale behavior a partitioned leader must
// exhibit).
func (t *ReadTicket) Ready() (bool, error) {
	if t.need == 0 {
		return true, nil
	}
	t.n.mu.Lock()
	defer t.n.mu.Unlock()
	return t.readyLocked()
}

// readyLocked is Ready with n.mu held.
func (t *ReadTicket) readyLocked() (bool, error) {
	n := t.n
	if n.closed {
		return false, fmt.Errorf("cluster: node closed before read confirmed")
	}
	if n.role != RoleLeader || n.currentTerm != t.term || n.campaignGen != t.gen {
		return false, &NotLeaderError{Leader: n.leaderURL}
	}
	if n.confirmedRound >= t.need && n.commitIndex >= n.barrier {
		return true, nil
	}
	if !n.cfg.Clock.Now().Before(t.deadline) {
		return false, fmt.Errorf("cluster: read not confirmed within %v (no quorum round; partitioned leader refuses stale reads)",
			n.cfg.QuorumTimeout)
	}
	return false, nil
}

// Wait blocks until the ticket is ready or permanently failed.
func (t *ReadTicket) Wait() error {
	if t.need == 0 {
		return nil
	}
	t.n.mu.Lock()
	defer t.n.mu.Unlock()
	return t.n.waitLocked(t.deadline, t.readyLocked)
}

// ReadLinearizable performs a full read at the requested mode,
// reporting the mode that actually vouched for it; GET /posts?mode=
// reaches it through the HTTP facade. The linearization point is the
// leadership proof (lease check or round confirmation) with the
// election barrier committed: the replica then holds every op committed
// before the read began, and it only ever holds committed ops, so the
// read returns nothing that can still be lost.
func (n *Node) ReadLinearizable(from simnet.Site, reader string, mode ReadMode) ([]service.Post, ReadMode, error) {
	t, err := n.StartRead(mode)
	if err != nil {
		return nil, "", err
	}
	if err := t.Wait(); err != nil {
		return nil, t.Used, err
	}
	posts, err := n.svc.Read(from, reader)
	return posts, t.Used, err
}

// LeaseRemaining reports how much of the leader lease is left (0 when
// not leading or no lease is held).
func (n *Node) LeaseRemaining() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.leaseValidLocked() {
		return 0
	}
	return n.leaseUntil.Sub(n.cfg.Clock.Now())
}
