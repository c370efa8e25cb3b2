package cluster

import (
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// pullCapture is captureTransport with the catch-up pulls recorded too,
// for tests that drive a follower by hand.
type pullCapture struct {
	captureTransport
	pmu   sync.Mutex
	pulls []capturedPull
}

type capturedPull struct {
	peer string
	req  PullRequest
	done func(PullResponse, error)
}

func (c *pullCapture) Pull(peer string, req PullRequest, done func(PullResponse, error)) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	c.pulls = append(c.pulls, capturedPull{peer, req, done})
}

// waitPulls polls until want pulls have been captured (a pull fires on a
// real zero-delay timer), then checks that no more follow.
func (c *pullCapture) waitPulls(t *testing.T, want int) []capturedPull {
	t.Helper()
	take := func() []capturedPull {
		c.pmu.Lock()
		defer c.pmu.Unlock()
		p := c.pulls
		c.pulls = nil
		return p
	}
	var got []capturedPull
	for deadline := time.Now().Add(5 * time.Second); len(got) < want && time.Now().Before(deadline); {
		got = append(got, take()...)
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got = append(got, take()...); len(got) != want {
		t.Fatalf("captured %d pulls, want exactly %d", len(got), want)
	}
	return got
}

// pushFollower is a voting member of a 3-node configuration whose
// timers are parked an hour out: only the test's own HandleHeartbeat
// calls and captured-pull answers move it.
func pushFollower(t *testing.T, tr Transport, fs diskfault.FS) *Node {
	t.Helper()
	n, err := NewNode(&memSvc{}, Config{
		NodeID: "f", SelfURL: "http://f", Peers: []string{"http://l", "http://x"},
		DataDir: t.TempDir(), FS: fs,
		PullInterval: time.Hour, ElectionTimeout: time.Hour, HeartbeatInterval: time.Hour,
		NoSync: fs == nil, Transport: tr,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(n.Kill)
	return n
}

// writeOpsAt builds count write ops of `term` starting at index from.
func writeOpsAt(from uint64, count int, term uint64) []Op {
	ops := make([]Op, count)
	for i := range ops {
		idx := from + uint64(i)
		ops[i] = recorded(Op{Index: idx, Term: term, Kind: opWrite, Site: string(simnet.DCWest),
			ID: fmt.Sprintf("t%d-%d", term, idx), Author: "a1", Body: "x"})
	}
	return ops
}

// appendReq is the leader "l" of `term` continuing a log from prev.
func appendReq(term, prev, prevTerm uint64, ops []Op, lastIndex, commit uint64) HeartbeatRequest {
	return HeartbeatRequest{
		Term: term, Leader: "l", LeaderURL: "http://l",
		LastIndex: lastIndex, Commit: commit, Prev: prev, PrevTerm: prevTerm, Ops: ops,
	}
}

// TestFollowerCommitBoundedByVerifiedPrefix: a follower holding a
// divergent uncommitted tail at 5–6 must not report it committed just
// because the new leader's commit index has reached 6. Its commit index
// may cover only what a request's position check verified against the
// leader's log — nothing, for a bare heartbeat, a conflicting Prev or a
// snapshot-flagged append — until the log has been re-sourced, by the
// snapshot install the flag starts.
func TestFollowerCommitBoundedByVerifiedPrefix(t *testing.T) {
	tr := &pullCapture{}
	f := pushFollower(t, tr, nil)
	// Term 1: entries 1–4 appended and committed, then 5–6 appended by a
	// leader that never committed them.
	resp := f.HandleHeartbeat(appendReq(1, 0, 0, writeOpsAt(1, 4, 1), 4, 0))
	if resp.LastIndex != 4 {
		t.Fatalf("append of 1–4 left the head at %d", resp.LastIndex)
	}
	f.HandleHeartbeat(appendReq(1, 4, 1, writeOpsAt(5, 2, 1), 6, 4))
	if got := f.CommitIndex(); got != 4 {
		t.Fatalf("commit index %d after a verified append with Commit 4", got)
	}

	// Term 2's leader holds different entries at 5–6 and has committed
	// them. A heartbeat in the old wire form (no Prev) proves nothing.
	legacy := appendReq(2, 0, 0, nil, 6, 6)
	f.HandleHeartbeat(legacy)
	if got := f.CommitIndex(); got >= 5 {
		t.Fatalf("a heartbeat with no position check raised the commit index to %d over a divergent tail", got)
	}
	// Its real heartbeat names (6, term 2): a conflict at an index both
	// logs hold. Still nothing verified, and the reply names the divergent
	// head for the leader to act on; a voting member sends no pull.
	resp = f.HandleHeartbeat(appendReq(2, 6, 2, nil, 6, 6))
	if got := f.CommitIndex(); got >= 5 {
		t.Fatalf("a conflicting heartbeat raised the commit index to %d over a divergent tail", got)
	}
	if resp.LastIndex != 6 || resp.LastTerm != 1 {
		t.Fatalf("reply reports head (%d, term %d), want the divergent (6, term 1)", resp.LastIndex, resp.LastTerm)
	}
	tr.waitPulls(t, 0)

	// The leader cannot continue (6, term 1) and flags its append, which
	// names that head. The flag verifies nothing; it starts a snapshot
	// fetch.
	flagged := appendReq(2, 6, 1, nil, 6, 6)
	flagged.Snapshot = true
	f.HandleHeartbeat(flagged)
	if got := f.CommitIndex(); got >= 5 {
		t.Fatalf("a snapshot-flagged append raised the commit index to %d over a divergent tail", got)
	}
	fetches := tr.takeSnaps()
	if len(fetches) != 1 || fetches[0].peer != "http://l" || fetches[0].req != (SnapshotChunkRequest{}) {
		t.Fatalf("a flagged append started fetches %+v, want one fresh transfer from the leader", fetches)
	}
	f.HandleHeartbeat(flagged) // redelivered while the fetch flies
	if got := tr.takeSnaps(); len(got) != 0 {
		t.Fatalf("a second flagged append started %d more fetches during the first", len(got))
	}
	snap := nodeSnapshot{LastIndex: 6, LastTerm: 2, State: writeOpsAt(1, 6, 2)}
	data := appendSnapshot(nil, &snap, records(snap.State))
	fetches[0].done(SnapshotChunkResponse{
		Term: 2, ID: "s", Total: uint64(len(data)), Data: data, CRC: crc32.ChecksumIEEE(data),
	}, nil)
	if ops := f.TailOps(); f.LastIndex() != 6 || len(ops) != 0 {
		t.Fatalf("after the install: head %d, tail %+v; want the snapshot at 6", f.LastIndex(), ops)
	}
	// A flag sent before the leader heard of the install names a head the
	// follower has left: it must not start a second transfer.
	if resp = f.HandleHeartbeat(flagged); resp.LastIndex != 6 || resp.LastTerm != 2 {
		t.Fatalf("reply to a stale flag reports (%d, term %d), want the installed (6, term 2)", resp.LastIndex, resp.LastTerm)
	}
	if got := tr.takeSnaps(); len(got) != 0 {
		t.Fatalf("a stale flag started %d fetches after the install", len(got))
	}
	// Re-sourced, the follower may adopt the commit.
	f.HandleHeartbeat(appendReq(2, 6, 2, nil, 6, 6))
	if got := f.CommitIndex(); got != 6 {
		t.Fatalf("commit index %d after the log was re-sourced and verified through 6", got)
	}
	tr.waitPulls(t, 0)
}

// TestAppendPrevMismatchRepliesHead: a request whose Prev lies beyond the
// follower's head applies nothing — not even entries that would fit
// elsewhere — and is answered with the follower's head, not with a pull;
// the append the leader sends from that head converges the follower, and
// deliveries it has already applied change nothing.
func TestAppendPrevMismatchRepliesHead(t *testing.T) {
	tr := &pullCapture{}
	f := pushFollower(t, tr, nil)
	f.HandleHeartbeat(appendReq(1, 0, 0, writeOpsAt(1, 3, 1), 3, 3))

	gap := appendReq(1, 5, 1, writeOpsAt(6, 2, 1), 7, 5)
	resp := f.HandleHeartbeat(gap)
	if resp.LastIndex != 3 || resp.LastTerm != 1 {
		t.Fatalf("a request continuing from 5 left a follower at 3 reporting (%d, term %d)", resp.LastIndex, resp.LastTerm)
	}
	if got := f.CommitIndex(); got != 3 {
		t.Fatalf("commit index %d after an unverifiable request, want 3", got)
	}
	tr.waitPulls(t, 0)
	if resp = f.HandleHeartbeat(appendReq(1, 3, 1, writeOpsAt(4, 4, 1), 7, 5)); resp.LastIndex != 7 {
		t.Fatalf("head %d after the append from the reported head", resp.LastIndex)
	}
	if got := f.CommitIndex(); got != 5 {
		t.Fatalf("commit index %d after an append verified through 7 with Commit 5", got)
	}
	for _, again := range []HeartbeatRequest{gap, appendReq(1, 0, 0, writeOpsAt(1, 3, 1), 3, 3)} {
		if resp = f.HandleHeartbeat(again); resp.LastIndex != 7 {
			t.Fatalf("a redelivered append moved the head to %d", resp.LastIndex)
		}
	}
	want := "[t1-1 t1-2 t1-3 t1-4 t1-5]"
	if got := fmt.Sprint(ids(t, f)); got != want {
		t.Fatalf("replica holds %s, want the committed %s", got, want)
	}
	if ops := f.TailOps(); len(ops) != 7 || ops[6].Index != 7 {
		t.Fatalf("log tail %+v, want 1–7 once each", ops)
	}
	tr.waitPulls(t, 0)
}

// TestLeaderMovesAMemberFromItsReply: the head a member's reply reports
// is where the leader's next request starts, sent at once — the entries
// after it when its log holds that head, a snapshot-flagged append
// naming it when it does not. A reply from the head the request was sent
// to pauses the member until the next tick instead.
func TestLeaderMovesAMemberFromItsReply(t *testing.T) {
	n, tr := guardNode(t)
	n.HandleHeartbeat(appendReq(1, 0, 0, writeOpsAt(1, 3, 1), 3, 3)) // history to be elected on
	term := electLeader(t, n, tr)
	byPeer := func(hbs []capturedHB) map[string]capturedHB {
		m := make(map[string]capturedHB)
		for _, hb := range hbs {
			m[hb.peer] = hb
		}
		return m
	}
	reply := func(hb capturedHB, last, lastTerm uint64) {
		hb.done(HeartbeatResponse{Term: term, Node: peerID(hb.peer), URL: hb.peer, LastIndex: last, LastTerm: lastTerm, Round: hb.req.Round}, nil)
	}
	first := byPeer(tr.waitHBs(t, 4)) // the barrier, from the head the leader was elected on
	for _, p := range []string{"http://b", "http://c", "http://d"} {
		reply(first[p], 4, term)
	}
	for i := 0; i < 2; i++ {
		if _, err := n.ProposeWrite(simnet.DCWest, service.Post{ID: fmt.Sprintf("w%d", i), Author: "a1", Body: "x"}); err != nil {
			t.Fatal(err)
		}
		for _, hb := range tr.waitHBs(t, 3) {
			reply(hb, hb.req.Prev+uint64(len(hb.req.Ops)), term)
		}
	}

	// a answers the barrier from behind the head it was sent from (a
	// member restarted on an empty log): the entries from its head go out
	// in the same instant.
	if hb := first["http://a"]; hb.req.Prev != 3 {
		t.Fatalf("the barrier went to a from %d, want the head the leader was elected on, 3", hb.req.Prev)
	}
	reply(first["http://a"], 0, 0)
	next := tr.takeHBs()
	if len(next) != 1 || next[0].peer != "http://a" || next[0].req.Prev != 0 || len(next[0].req.Ops) != 6 || next[0].req.Snapshot {
		t.Fatalf("after a's reply from 0, sent %+v; want one append of 1–6 from 0 to a", next)
	}
	// A reply from the head it was sent to pauses a: a proposal reaches
	// the others only, and the next tick retries a.
	reply(next[0], 0, 0)
	if _, err := n.ProposeWrite(simnet.DCWest, service.Post{ID: "w2", Author: "a1", Body: "x"}); err != nil {
		t.Fatal(err)
	}
	for _, hb := range tr.waitHBs(t, 3) {
		if hb.peer == "http://a" {
			t.Fatalf("a paused member was sent %+v", hb.req)
		}
		reply(hb, hb.req.Prev+uint64(len(hb.req.Ops)), term)
	}
	n.heartbeatTick()
	tick := byPeer(tr.waitHBs(t, 4))
	if hb := tick["http://a"]; hb.req.Prev != 0 || len(hb.req.Ops) != 7 {
		t.Fatalf("the tick sent a %+v; want the entries 1–7 from 0", hb.req)
	}
	// a reports a head this log cannot continue — ahead of it, in an old
	// term: the next request names that head and flags a snapshot, at once.
	reply(tick["http://a"], 9, term-1)
	next = tr.takeHBs()
	if len(next) != 1 || next[0].peer != "http://a" || !next[0].req.Snapshot ||
		next[0].req.Prev != 9 || next[0].req.PrevTerm != term-1 || len(next[0].req.Ops) != 0 {
		t.Fatalf("after a's reply from (9, term %d), sent %+v; want one snapshot-flagged append naming it", term-1, next)
	}
	// Still there — fetching — it is left to the ticks.
	reply(next[0], 9, term-1)
	if got := tr.takeHBs(); len(got) != 0 {
		t.Fatalf("a member fetching a snapshot was sent %d requests at once", len(got))
	}
}

// TestHungPeerStopsNeitherHeartbeatsNorRounds: a transport that never
// answers one peer — its append outstanding forever — must cost that
// peer nothing but the entries: every tick still addresses it, rounds
// are still opened and confirmed by the others, and the others still
// receive every proposal the moment it is made.
func TestHungPeerStopsNeitherHeartbeatsNorRounds(t *testing.T) {
	n, tr := guardNode(t)
	term := electLeader(t, n, tr)
	const hung = "http://a"
	answer := func(hbs []capturedHB) {
		for _, hb := range hbs {
			if hb.peer == hung {
				continue
			}
			last := hb.req.Prev + uint64(len(hb.req.Ops))
			hb.done(HeartbeatResponse{
				Term: term, Node: peerID(hb.peer), URL: hb.peer,
				LastIndex: last, LastTerm: term, Round: hb.req.Round,
			}, nil)
		}
	}
	first := tr.waitHBs(t, 4) // the election's tick carries the barrier to all four
	for _, hb := range first {
		if len(hb.req.Ops) != 1 || hb.req.Ops[0].Kind != opNoop {
			t.Fatalf("first heartbeat to %s carries %+v, want the barrier", hb.peer, hb.req.Ops)
		}
	}
	answer(first)
	if got := n.CommitIndex(); got != 1 {
		t.Fatalf("barrier not committed by three of four peers: commit %d", got)
	}

	for i := 0; i < 3; i++ {
		idx, err := n.ProposeWrite(simnet.DCWest, service.Post{ID: fmt.Sprintf("w%d", i), Author: "a1", Body: "x"})
		if err != nil {
			t.Fatal(err)
		}
		appends := tr.waitHBs(t, 3)
		for _, hb := range appends {
			if hb.peer == hung {
				t.Fatalf("a second entry-carrying request went to %s while its first is outstanding", hung)
			}
			if len(hb.req.Ops) != 1 || hb.req.Ops[0].Index != idx {
				t.Fatalf("append to %s carries %+v, want op %d", hb.peer, hb.req.Ops, idx)
			}
		}
		answer(appends)
		if got := n.CommitIndex(); got != idx {
			t.Fatalf("write %d not committed without %s: commit %d", idx, hung, got)
		}

		n.mu.Lock()
		confirmed := n.confirmedRound
		n.mu.Unlock()
		n.heartbeatTick()
		tick := tr.waitHBs(t, 4)
		var toHung *capturedHB
		for j := range tick {
			if tick[j].peer == hung {
				toHung = &tick[j]
			}
		}
		if toHung == nil {
			t.Fatalf("tick %d skipped %s because an append to it is outstanding", i, hung)
		}
		if len(toHung.req.Ops) != 0 {
			t.Fatalf("tick to %s carries %d ops beside the outstanding append", hung, len(toHung.req.Ops))
		}
		if toHung.req.Round <= confirmed {
			t.Fatalf("tick %d opened no new round (round %d, confirmed %d)", i, toHung.req.Round, confirmed)
		}
		answer(tick)
		n.mu.Lock()
		now := n.confirmedRound
		n.mu.Unlock()
		if now != toHung.req.Round {
			t.Fatalf("round %d not confirmed by the three answering peers (confirmed %d)", toHung.req.Round, now)
		}
	}
	if d := n.LeaseRemaining(); d <= 0 {
		t.Fatal("confirmed rounds earned no lease")
	}
}

// TestStatusOmitsUnheardPeers: the leader keeps a progress record for
// every member from the moment it is elected; status lists a member
// only once it has been heard from, not with a silence measured from
// the zero time.
func TestStatusOmitsUnheardPeers(t *testing.T) {
	n, tr := guardNode(t)
	term := electLeader(t, n, tr)
	hbs := tr.waitHBs(t, 4)
	if got := n.Status().Followers; len(got) != 0 {
		t.Fatalf("status lists %d followers before any answered: %+v", len(got), got)
	}
	hbs[0].done(HeartbeatResponse{Term: term, Node: peerID(hbs[0].peer), URL: hbs[0].peer, LastIndex: 1, LastTerm: term}, nil)
	got := n.Status().Followers
	if len(got) != 1 || got[0].URL != hbs[0].peer || got[0].SincePull > time.Minute {
		t.Fatalf("status after one reply: %+v", got)
	}
}

// pullNode is a node the leader does not address — no peers, a leader
// URL — whose pull timer is parked an hour out: the test pulls by hand.
func pullNode(t *testing.T) (*Node, *pullCapture) {
	t.Helper()
	tr := &pullCapture{}
	n, err := NewNode(&memSvc{}, Config{
		NodeID: "j", SelfURL: "http://j", LeaderURL: "http://l", DataDir: t.TempDir(),
		PullInterval: time.Hour, NoSync: true, Transport: tr,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(n.Kill)
	return n, tr
}

// TestStalePulledAppendDropped: a pull and the leader's appends both
// write the log, so an answer that was in flight across a change of
// leader must not be applied — entries of the deposed leader's log laid
// over the new leader's would pair an (index, term) with a prefix it
// never had, which is exactly what log matching rules out. The pulled
// append goes through the pushed one's term check, which drops it; a
// current answer is applied, and one that leaves the puller behind is
// followed by the next pull at once.
func TestStalePulledAppendDropped(t *testing.T) {
	j, tr := pullNode(t)
	j.HandleHeartbeat(appendReq(1, 0, 0, writeOpsAt(1, 5, 1), 5, 5))
	j.pullTick()
	pull := tr.waitPulls(t, 1)[0]
	if pull.peer != "http://l" || pull.req.From != 5 || pull.req.FromTerm != 1 || pull.req.URL != "http://j" {
		t.Fatalf("pull %+v to %s, want from (5, term 1) to the leader", pull.req, pull.peer)
	}

	// Term 2's leader, elected on (5, term 1), appends its own entry 6.
	next := writeOpsAt(6, 1, 2)
	if resp := j.HandleHeartbeat(appendReq(2, 5, 1, next, 6, 5)); resp.LastIndex != 6 || resp.LastTerm != 2 {
		t.Fatalf("term 2's append left the head at (%d, term %d)", resp.LastIndex, resp.LastTerm)
	}
	// Term 1's answer arrives: its 6 is not ours, and its 7 must not follow our 6.
	pull.done(PullResponse{Append: appendReq(1, 5, 1, writeOpsAt(6, 2, 1), 7, 5)}, nil)
	ops := j.TailOps()
	if len(ops) != 6 || ops[5].Term != 2 || j.LastIndex() != 6 {
		t.Fatalf("log after the stale answer: head %d, tail %+v; want term 2's entry 6 last", j.LastIndex(), ops)
	}
	tr.waitPulls(t, 0)

	// Term 2's answer moves it, one entry of three: it pulls again at once.
	j.pullTick()
	pull = tr.waitPulls(t, 1)[0]
	pull.done(PullResponse{Append: appendReq(2, 6, 2, writeOpsAt(7, 1, 2), 9, 7)}, nil)
	if got, commit := j.LastIndex(), j.CommitIndex(); got != 7 || commit != 7 {
		t.Fatalf("after a current answer: head %d, commit %d; want 7 and 7", got, commit)
	}
	if again := tr.waitPulls(t, 1)[0]; again.req.From != 7 || again.req.FromTerm != 2 {
		t.Fatalf("the next pull asks from (%d, term %d), want (7, term 2)", again.req.From, again.req.FromTerm)
	}
}
