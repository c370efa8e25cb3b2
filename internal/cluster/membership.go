package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Membership change (joint consensus). The voting configuration is
// itself replicated through the op log: a reconfiguration appends a
// joint entry C(old,new) under which every quorum decision — votes,
// write acks, lease confirm rounds — must be satisfied by a majority of
// the old member set AND a majority of the new one. Once the joint
// entry commits (provably durable under both quorums), the leader
// appends the final C(new) entry; once that commits the change is
// done, and a leader that removed itself steps down. A node adopts the
// latest configuration entry in its log the moment it appends it,
// committed or not (the Raft rule), so there is never an instant where
// two disjoint majorities could both elect a leader.
//
// Members are identified by their base URL — the address every other
// protocol message already routes on; IDs ride along for display.

// Member is one voting cluster member.
type Member struct {
	// ID is the member's node name, when known ("" for a statically
	// configured peer whose name has not been learned).
	ID string `json:"id,omitempty"`
	// URL is the member's base URL — its identity for quorum counting.
	URL string `json:"url"`
}

// Membership is a voting configuration. Joint (C(old,new)) when Old is
// non-empty: every quorum must then be satisfied in Old and New
// independently.
type Membership struct {
	// New is the target (or sole) member set.
	New []Member `json:"new"`
	// Old is the previous member set during the joint phase of a
	// reconfiguration; empty otherwise.
	Old []Member `json:"old,omitempty"`
}

// Joint reports whether the configuration is in the two-quorum phase.
func (m Membership) Joint() bool { return len(m.Old) > 0 }

// Contains reports whether url is a voting member (of either set).
func (m Membership) Contains(url string) bool {
	return memberOf(m.New, url) || memberOf(m.Old, url)
}

// InNew reports whether url is a member of the target set.
func (m Membership) InNew(url string) bool { return memberOf(m.New, url) }

func memberOf(set []Member, url string) bool {
	for _, mem := range set {
		if mem.URL == url {
			return true
		}
	}
	return false
}

// PeerURLs lists every member URL except self, deduplicated across the
// joint sets and sorted — protocol fan-out iterates it, and a sorted
// list keeps that iteration deterministic.
func (m Membership) PeerURLs(self string) []string {
	seen := map[string]bool{self: true, "": true}
	var urls []string
	for _, set := range [][]Member{m.New, m.Old} {
		for _, mem := range set {
			if !seen[mem.URL] {
				seen[mem.URL] = true
				urls = append(urls, mem.URL)
			}
		}
	}
	sort.Strings(urls)
	return urls
}

// majority is the smallest group that overlaps every other majority.
func majority(n int) int { return n/2 + 1 }

// quorumSize is the ack count a member set of size n demands given the
// operator's -quorum override: at least a majority — an override of 1
// on a 4-node cluster must NOT let the leader ack alone, minority
// quorums don't overlap — and at most n, so a shrink below an explicit
// override cannot wedge the cluster forever.
func quorumSize(n, override int) int {
	q := majority(n)
	if override > q {
		q = override
	}
	if q > n {
		q = n
	}
	return q
}

// satisfied reports whether acked covers a quorum of set.
func satisfied(set []Member, override int, acked func(url string) bool) bool {
	count := 0
	for _, mem := range set {
		if acked(mem.URL) {
			count++
		}
	}
	return count >= quorumSize(len(set), override)
}

// VoteSatisfied reports whether the acked members form an election
// quorum: a majority of New, and of Old too while joint. Vote quorums
// never honor the write-ack override — overlapping majorities are what
// make elections safe, and a larger write quorum adds nothing there.
func (m Membership) VoteSatisfied(acked func(url string) bool) bool {
	if !satisfied(m.New, 0, acked) {
		return false
	}
	return !m.Joint() || satisfied(m.Old, 0, acked)
}

// WriteSatisfied reports whether the acked members form a write-commit
// quorum under the configured override, in both sets while joint.
func (m Membership) WriteSatisfied(override int, acked func(url string) bool) bool {
	if !satisfied(m.New, override, acked) {
		return false
	}
	return !m.Joint() || satisfied(m.Old, override, acked)
}

// describe renders the configuration for events and status lines.
func (m Membership) describe() string {
	if m.Joint() {
		return fmt.Sprintf("joint(%d+%d)", len(m.Old), len(m.New))
	}
	return fmt.Sprintf("new(%d)", len(m.New))
}

// staticMembership builds the boot-time configuration from the flags:
// self plus the static peer list, URL-sorted. It is replaced by the
// first configuration entry recovered from or appended to the log.
func staticMembership(selfID, selfURL string, peers []string) Membership {
	members := []Member{{ID: selfID, URL: selfURL}}
	for _, p := range peers {
		members = append(members, Member{URL: p})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].URL < members[j].URL })
	return Membership{New: members}
}

// Membership returns the node's active voting configuration.
func (n *Node) Membership() Membership {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.config
}

// ConfigSettled reports whether no reconfiguration is in flight: the
// active configuration is non-joint and committed.
func (n *Node) ConfigSettled() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.config.Joint() && n.configIndex <= n.commitIndex
}

// Reconfigure starts a joint-consensus membership change on the
// leader: add lists members to admit (by URL, with an optional ID),
// remove lists member URLs to retire. The joint C(old,new) entry is
// appended (and adopted) immediately; the returned index is the joint
// entry's. Committing it — under both quorums — makes the leader
// append the final C(new) entry automatically, leader failovers
// included: whoever commits the joint entry finishes the change. Use
// WaitReconfigured to block until the whole change settles.
func (n *Node) Reconfigure(add []Member, remove []string) (uint64, error) {
	// Validation and staging share one critical section: releasing the
	// lock in between would let a concurrent Reconfigure (or a
	// step-down/re-election) pass the no-change-in-flight check against
	// the same snapshot and append a second joint entry that silently
	// supersedes the first.
	n.mu.Lock()
	defer n.unlockAndReplicate()
	if n.closed {
		return 0, fmt.Errorf("cluster: node is closed")
	}
	if n.role != RoleLeader {
		return 0, &NotLeaderError{Leader: n.leaderURL}
	}
	if n.config.Joint() || n.configIndex > n.commitIndex {
		return 0, fmt.Errorf("cluster: a reconfiguration is already in progress (%s at index %d)",
			n.config.describe(), n.configIndex)
	}
	old := n.config.New
	next := make([]Member, 0, len(old)+len(add))
	removed := make(map[string]bool, len(remove))
	for _, url := range remove {
		removed[url] = true
	}
	for _, mem := range old {
		if !removed[mem.URL] {
			next = append(next, mem)
		}
	}
	for _, mem := range add {
		if mem.URL == "" {
			return 0, fmt.Errorf("cluster: added member needs a URL")
		}
		if removed[mem.URL] {
			return 0, fmt.Errorf("cluster: member %s both added and removed", mem.URL)
		}
		if memberOf(next, mem.URL) {
			continue // already a member; adding is idempotent
		}
		next = append(next, mem)
	}
	if len(next) == 0 {
		return 0, fmt.Errorf("cluster: refusing to remove every member")
	}
	sort.Slice(next, func(i, j int) bool { return next[i].URL < next[j].URL })
	if sameMembers(old, next) {
		return 0, fmt.Errorf("cluster: membership unchanged")
	}

	// acceptLocked stages, fsyncs and publishes like any other op;
	// publishLocked adopts the joint config the moment it is appended.
	joint := Membership{Old: old, New: next}
	return n.acceptLocked(Op{Kind: opConfig, Config: &joint})
}

func sameMembers(a, b []Member) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].URL != b[i].URL {
			return false
		}
	}
	return true
}

// WaitReconfigured blocks until the change whose joint entry sits at
// idx has fully settled — the final C(new) entry committed — or until
// leadership (in the calling term) is lost or QuorumTimeout passes.
// Losing leadership does not abort the change: any leader that
// inherits the joint entry finishes it; only this node's ability to
// report completion is gone.
func (n *Node) WaitReconfigured(idx uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	term := n.currentTerm
	deadline := n.cfg.Clock.Now().Add(n.cfg.QuorumTimeout)
	return n.waitLocked(deadline, func() (bool, error) {
		switch {
		case n.commitIndex >= idx && !n.config.Joint() && n.configIndex <= n.commitIndex:
			return true, nil
		case n.closed:
			return false, fmt.Errorf("cluster: node closed before reconfiguration %d settled", idx)
		case n.role != RoleLeader || n.currentTerm != term:
			return false, fmt.Errorf("cluster: leadership lost before reconfiguration %d settled", idx)
		case !n.cfg.Clock.Now().Before(deadline):
			return false, fmt.Errorf("cluster: reconfiguration %d not settled within %v", idx, n.cfg.QuorumTimeout)
		}
		return false, nil
	})
}

// maybeFinishReconfigureLocked appends the final C(new) entry once the
// joint entry has committed under both quorums, and steps the leader
// down once a C(new) that excludes it commits. Caller holds n.mu; runs
// from recomputeCommitLocked so a leader that inherited a joint entry
// mid-change (the mid-joint-kill case) finishes it the moment its
// no-op barrier commits.
func (n *Node) maybeFinishReconfigureLocked() {
	if n.role != RoleLeader || n.configIndex > n.commitIndex {
		return
	}
	if n.config.Joint() {
		final := Membership{New: append([]Member(nil), n.config.New...)}
		// A staging failure (WAL error) leaves the config joint; the next
		// commit advance retries.
		_, _ = n.appendNewLocked(Op{Kind: opConfig, Config: &final})
		return
	}
	if !n.config.Contains(n.cfg.SelfURL) {
		// The settled configuration excludes this leader: its last duty —
		// committing C(new) — is done, so demote. The successor is elected
		// by the remaining members, and this node, a member no longer, pulls
		// from it.
		n.stepDownLocked(n.currentTerm, "", "")
	}
}

// memberNames renders a member set for logs.
func memberNames(set []Member) string {
	parts := make([]string, len(set))
	for i, mem := range set {
		if mem.ID != "" {
			parts[i] = mem.ID
		} else {
			parts[i] = mem.URL
		}
	}
	return strings.Join(parts, ",")
}
