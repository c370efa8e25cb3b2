package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/obs"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// flipByte inverts one byte mid-file — past the first frame header, so
// the damage is a CRC mismatch on a committed record, not a torn tail.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(raw) {
		t.Fatalf("flip offset %d beyond file size %d", off, len(raw))
	}
	raw[off] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncPoisonNeverAcks pins recovery path (b): a failed fsync on
// the op WAL poisons the handle — the write that could not be made
// durable is NACKed, every later write is refused with ErrPoisoned, and
// a restart serves exactly the acked prefix. No ack is ever sent on
// unsynced bytes.
func TestFsyncPoisonNeverAcks(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	inj := diskfault.New(reg.Scope("diskfault"))
	n, err := NewNode(&memSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: dir,
		FS: inj.FS(), Metrics: reg.Scope("cluster"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()

	if err := n.Write(simnet.DCWest, service.Post{ID: "acked", Author: "a1", Body: "x"}); err != nil {
		t.Fatalf("pre-fault write: %v", err)
	}
	if err := inj.Arm(diskfault.Fault{Kind: diskfault.KindFsyncGate, Path: "oplog.log"}); err != nil {
		t.Fatal(err)
	}
	if err := n.Write(simnet.DCWest, service.Post{ID: "lost", Author: "a1", Body: "x"}); err == nil {
		t.Fatal("write acked over a failed fsync")
	}
	// The handle is poisoned: later writes fail fast, no matter how many
	// "successful" fsyncs the filesystem would report now.
	if err := n.Write(simnet.DCWest, service.Post{ID: "after", Author: "a1", Body: "x"}); err == nil {
		t.Fatal("write acked on a poisoned WAL handle")
	}
	var poisoned float64
	for _, e := range reg.Snapshot() {
		if strings.Contains(e.Name, "fsync_poisoned_total") {
			poisoned += e.Value
		}
	}
	if poisoned == 0 {
		t.Fatal("fsync_poisoned_total never incremented")
	}
	n.Kill()

	// Restart on a healthy disk: the acked write is there, the NACKed
	// ones are not.
	n2, err := NewNode(&memSvc{}, Config{NodeID: "n1", Role: RoleLeader, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Kill()
	if got := ids(t, n2); fmt.Sprint(got) != "[acked]" {
		t.Fatalf("recovered replica = %v, want [acked] only", got)
	}
	// And the node is writable again — poison is per-handle, not
	// per-file.
	if err := n2.Write(simnet.DCWest, service.Post{ID: "fresh", Author: "a1", Body: "x"}); err != nil {
		t.Fatalf("post-restart write: %v", err)
	}

	// The follower's half of the rule. An append's reply is its ack, so a
	// follower whose WAL fails the batch's one fsync must answer with the
	// head it had before — the entries neither published nor left in its
	// replica — and the leader must never count it toward the commit.
	finj := diskfault.New(nil)
	f, err := NewNode(&memSvc{}, Config{
		NodeID: "a", SelfURL: "http://a",
		Peers:   []string{"http://g", "http://b", "http://c", "http://d"},
		DataDir: t.TempDir(), FS: finj.FS(), Transport: &pullCapture{},
		PullInterval: time.Hour, ElectionTimeout: time.Hour, HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Kill()
	l, tr := guardNode(t)
	term := electLeader(t, l, tr)
	// deliver hands a's request to the real follower and b's and c's to
	// healthy stand-ins; d never answers, so a commit needs two of a, b, c.
	deliver := func(hbs []capturedHB, peers ...string) {
		for _, hb := range hbs {
			for _, p := range peers {
				if hb.peer != p {
					continue
				}
				resp := HeartbeatResponse{
					Term: term, Node: peerID(p), URL: p, Round: hb.req.Round,
					LastIndex: hb.req.Prev + uint64(len(hb.req.Ops)), LastTerm: term,
				}
				if p == "http://a" {
					resp = f.HandleHeartbeat(hb.req)
				}
				hb.done(resp, nil)
			}
		}
	}
	deliver(tr.waitHBs(t, 4), "http://a", "http://b", "http://c")
	if l.CommitIndex() != 1 || f.LastIndex() != 1 {
		t.Fatalf("healthy append: leader commit %d, follower head %d, want 1 and 1", l.CommitIndex(), f.LastIndex())
	}
	if err := finj.Arm(diskfault.Fault{Kind: diskfault.KindFsyncGate, Path: "oplog.log"}); err != nil {
		t.Fatal(err)
	}
	idx, err := l.ProposeWrite(simnet.DCWest, service.Post{ID: "unsynced", Author: "a1", Body: "x"})
	if err != nil {
		t.Fatal(err)
	}
	appends := tr.waitHBs(t, 3)
	deliver(appends, "http://a", "http://b")
	if got := f.LastIndex(); got != 1 {
		t.Fatalf("follower published op %d over a failed fsync (head %d)", idx, got)
	}
	if got := fmt.Sprint(ids(t, f)); got != "[]" {
		t.Fatalf("follower's replica kept %s after the failed batch", got)
	}
	if got := l.CommitIndex(); got >= idx {
		t.Fatalf("leader counted a follower that could not fsync: commit %d", got)
	}
	// The reply showed no progress, so the next proposal is not thrown at
	// the stuck follower; the next tick retries it, and it still cannot ack.
	if _, err := l.ProposeWrite(simnet.DCWest, service.Post{ID: "next", Author: "a1", Body: "x"}); err != nil {
		t.Fatal(err)
	}
	next := tr.waitHBs(t, 1) // to b; c's append is still outstanding
	time.Sleep(20 * time.Millisecond)
	if extra := append(next, tr.takeHBs()...); len(extra) != 1 || extra[0].peer != "http://b" {
		t.Fatalf("%d requests sent to a stuck follower", len(extra))
	}
	l.heartbeatTick()
	deliver(tr.waitHBs(t, 4), "http://a")
	if got := l.CommitIndex(); got >= idx {
		t.Fatalf("leader counted the poisoned follower on retry: commit %d", got)
	}
	if f.LastIndex() != 1 {
		t.Fatalf("poisoned follower moved to %d", f.LastIndex())
	}
	// With b's ack alone the op is on two of five; c's makes the quorum.
	deliver(appends, "http://c")
	if got := l.CommitIndex(); got != idx {
		t.Fatalf("commit %d after b and c acked op %d", got, idx)
	}
}

// TestQuarantinedFollowerRejoinsViaSnapshot pins recovery path (a): a
// follower whose op WAL rots below its committed index quarantines the
// damaged file to a .corrupt sidecar and rejoins through the leader's
// snapshot-install stream, converging with no acked write lost.
func TestQuarantinedFollowerRejoinsViaSnapshot(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 8)
	defer leader.Close()
	// Six writes stay under SnapshotEvery=8: the floor is still 0, so
	// the follower catches up by plain pulls and its own WAL holds every
	// committed record.
	writeOps(t, leader, 0, 6)

	fdir := t.TempDir()
	f := newFollower(t, "n2", fdir, ts.URL, 5*time.Millisecond)
	waitIndex(t, f, 6)
	f.Kill()

	// Rot a committed record in the middle of the follower's WAL, and
	// move the leader's floor past it (four more writes trip the
	// SnapshotEvery=8 compaction), so the quarantined follower's restart
	// position is below the floor and only a snapshot install can serve
	// it.
	flipByte(t, filepath.Join(fdir, "oplog.log"), 12)
	writeOps(t, leader, 50, 4)

	reg := obs.NewRegistry()
	f2, err := NewNode(&memSvc{}, Config{
		NodeID: "n2", Role: RoleFollower, LeaderURL: ts.URL,
		DataDir: fdir, PullInterval: 5 * time.Millisecond, SnapshotEvery: 1 << 20,
		Metrics: reg.Scope("cluster"),
	})
	if err != nil {
		t.Fatalf("corrupt WAL failed the boot instead of quarantining: %v", err)
	}
	defer f2.Close()

	if _, err := os.Stat(filepath.Join(fdir, "oplog.log.corrupt")); err != nil {
		t.Fatalf("no .corrupt sidecar after quarantine: %v", err)
	}
	notes := f2.StorageNotes()
	if len(notes) == 0 {
		t.Fatal("quarantine left no storage note")
	}
	var quarantined float64
	for _, e := range reg.Snapshot() {
		if strings.Contains(e.Name, "wal_quarantined_segments") {
			quarantined += e.Value
		}
	}
	if quarantined == 0 {
		t.Fatal("wal_quarantined_segments never incremented")
	}

	// The rejoin: pull refused (floor moved) -> snapshot install -> tail
	// stream. The replica converges to the leader's exact state.
	waitIndex(t, f2, 10)
	if got, want := ids(t, f2), ids(t, leader); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rejoined replica = %v, leader = %v", got, want)
	}
	// And it keeps streaming after the install.
	writeOps(t, leader, 100, 2)
	waitIndex(t, f2, 12)
	if got, want := ids(t, f2), ids(t, leader); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-install stream = %v, leader = %v", got, want)
	}
}

// TestCorruptTermLogBootsNonGranting pins recovery path (c): a node
// whose term log rots mid-file boots — the file quarantined — but as a
// non-granting voter for a full vote-hold window (two election timeouts
// plus clock skew; DESIGN.md §10), because its persisted votes may be
// forgotten and re-granting a forgotten vote is a double vote. The
// window is independent of the boot-stickiness rule (it survives
// ageBoot), and expires on the clock, not on restart count.
func TestCorruptTermLogBootsNonGranting(t *testing.T) {
	dir := t.TempDir()
	voter := passiveVoter(t, dir)
	if resp := voter.HandleVote(voteReq(5, "A")); !resp.Granted {
		t.Fatalf("pristine voter refused term-5 vote: %+v", resp)
	}
	voter.Kill()

	// Two records are on disk (NewNode compacts to one on reboot, but we
	// never rebooted); rot the first one's payload.
	flipByte(t, filepath.Join(dir, "term.log"), 10)

	n := passiveVoter(t, dir) // ageBoot inside: boot stickiness expired
	defer n.Kill()
	if _, err := os.Stat(filepath.Join(dir, "term.log.corrupt")); err != nil {
		t.Fatalf("no .corrupt sidecar for the term log: %v", err)
	}
	// Within the window: no grants, to anyone, in any term — the node
	// cannot know which votes it forgot.
	if resp := n.HandleVote(voteReq(5, "B")); resp.Granted {
		t.Fatal("non-granting boot window granted a vote (possible double vote for term 5)")
	}
	if resp := n.HandleVote(voteReq(9, "B")); resp.Granted {
		t.Fatal("non-granting boot window granted a fresh-term vote")
	}
	// After the window: normal grant rules resume. Rewind the deadline
	// directly — the mechanism under test is that refusal keys off
	// nonGrantingUntil, which ageBoot must not clear.
	n.mu.Lock()
	if n.nonGrantingUntil.IsZero() {
		n.mu.Unlock()
		t.Fatal("term-log quarantine did not arm the non-granting window")
	}
	n.nonGrantingUntil = n.cfg.Clock.Now().Add(-time.Second)
	n.mu.Unlock()
	if resp := n.HandleVote(voteReq(9, "B")); !resp.Granted {
		t.Fatalf("grants still refused after the window expired: %+v", resp)
	}
}

// TestQuarantinedNodeWithholdsVotesUntilRebuilt pins the quarantine
// voting rule: a node whose oplog was quarantined boots with an emptied
// log, so the up-to-dateness gate would compare candidates against
// nothing — granting could elect a leader missing entries this node
// once acked toward a commit. The node must refuse every grant, across
// restarts (the rebuilding marker persists), until it has re-sourced
// its log from the current leader; time alone never lifts it.
func TestQuarantinedNodeWithholdsVotesUntilRebuilt(t *testing.T) {
	leader, ts := newLeader(t, t.TempDir(), 1<<20)
	defer leader.Close()
	writeOps(t, leader, 0, 6)

	fdir := t.TempDir()
	f := newFollower(t, "n2", fdir, ts.URL, 5*time.Millisecond)
	waitIndex(t, f, 6)
	f.Kill()

	// Rot a committed record mid-WAL, then reboot with pulls parked an
	// hour out: the node quarantines but has no way to catch up yet.
	flipByte(t, filepath.Join(fdir, "oplog.log"), 12)
	parked := func() *Node {
		n, err := NewNode(&memSvc{}, Config{
			NodeID: "n2", Role: RoleFollower, LeaderURL: ts.URL,
			DataDir: fdir, PullInterval: time.Hour, SnapshotEvery: 1 << 20,
		})
		if err != nil {
			t.Fatalf("quarantine boot: %v", err)
		}
		return n
	}
	f2 := parked()
	if !f2.Rebuilding() {
		t.Fatal("quarantined node does not report rebuilding")
	}
	if _, err := os.Stat(filepath.Join(fdir, "rebuilding")); err != nil {
		t.Fatalf("rebuilding marker not persisted: %v", err)
	}
	// The refusal must come from the rebuilding restriction itself, not
	// boot stickiness — age the boot out and solicit with a candidate
	// whose empty log the emptied local log would call up-to-date.
	ageBoot(f2)
	if resp := f2.HandleVote(voteReq(99, "B")); resp.Granted {
		t.Fatal("rebuilding node granted a vote against its emptied log")
	}
	f2.Kill()

	// The restriction survives another restart: the marker re-arms it.
	f3 := parked()
	if !f3.Rebuilding() {
		t.Fatal("rebuilding restriction did not survive the restart")
	}
	ageBoot(f3)
	if resp := f3.HandleVote(voteReq(99, "B")); resp.Granted {
		t.Fatal("restarted rebuilding node granted a vote")
	}
	f3.Kill()

	// Re-source from the leader: a pulling reboot catches up to the
	// leader's advertised head, which retires the marker durably.
	f4 := newFollower(t, "n2", fdir, ts.URL, 5*time.Millisecond)
	defer f4.Close()
	waitIndex(t, f4, 6)
	deadline := time.Now().Add(10 * time.Second)
	for f4.Rebuilding() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f4.Rebuilding() {
		t.Fatal("node still rebuilding after catching up to the leader's head")
	}
	if _, err := os.Stat(filepath.Join(fdir, "rebuilding")); !os.IsNotExist(err) {
		t.Fatalf("rebuilding marker not retired: %v", err)
	}
	// Each pulled append was contact with a live leader, and leader
	// stickiness refuses other candidates for an ElectionTimeout after
	// one: silence the leader, let the pull in flight land, and age that
	// contact out as ageBoot ages the boot.
	ts.Close()
	ageBoot(f4)
	f4.mu.Lock()
	for f4.pullInFlight {
		f4.mu.Unlock()
		time.Sleep(time.Millisecond)
		f4.mu.Lock()
	}
	f4.lastLeaderContact = f4.lastLeaderContact.Add(-f4.cfg.ElectionTimeout)
	head, headTerm := f4.lastIndex, f4.lastTerm
	f4.mu.Unlock()
	if resp := f4.HandleVote(VoteRequest{
		Term: 99, Candidate: "B", CandidateURL: "http://B",
		LastIndex: head, LastTerm: headTerm,
	}); !resp.Granted {
		t.Fatalf("rebuilt node still refuses votes: %+v", resp)
	}
	if got, want := ids(t, f4), ids(t, leader); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rebuilt replica = %v, leader = %v", got, want)
	}
}

// TestTermQuarantineHoldSurvivesRestart: the vote-hold window after a
// term-log quarantine is persisted as a marker and re-armed IN FULL on
// every boot until one window elapses uninterrupted in a live process —
// crash-looping through restarts cannot shrink it to nothing.
func TestTermQuarantineHoldSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	voter := passiveVoter(t, dir)
	if resp := voter.HandleVote(voteReq(5, "A")); !resp.Granted {
		t.Fatalf("pristine voter refused term-5 vote: %+v", resp)
	}
	voter.Kill()
	flipByte(t, filepath.Join(dir, "term.log"), 10)

	n := passiveVoter(t, dir)
	if _, err := os.Stat(filepath.Join(dir, "votehold")); err != nil {
		t.Fatalf("vote-hold marker not persisted: %v", err)
	}
	if resp := n.HandleVote(voteReq(5, "B")); resp.Granted {
		t.Fatal("vote-hold window granted a vote (possible double vote for term 5)")
	}
	n.Kill()

	// Restart: the term log is clean now, but the marker re-arms the
	// full window — the hold does not die with the process.
	n2 := passiveVoter(t, dir)
	defer n2.Kill()
	n2.mu.Lock()
	armed := !n2.nonGrantingUntil.IsZero()
	n2.mu.Unlock()
	if !armed {
		t.Fatal("restart did not re-arm the vote-hold window from its marker")
	}
	if resp := n2.HandleVote(voteReq(9, "B")); resp.Granted {
		t.Fatal("restarted voter granted inside the re-armed hold window")
	}
	// Once the window has elapsed, the next grant both succeeds and
	// retires the marker, so the following boot is unrestricted. Rewind
	// the deadline to stand in for the elapsed window.
	n2.mu.Lock()
	n2.nonGrantingUntil = n2.cfg.Clock.Now().Add(-time.Second)
	n2.mu.Unlock()
	if resp := n2.HandleVote(voteReq(9, "B")); !resp.Granted {
		t.Fatalf("grants still refused after the window elapsed: %+v", resp)
	}
	if _, err := os.Stat(filepath.Join(dir, "votehold")); !os.IsNotExist(err) {
		t.Fatalf("elapsed window did not retire the vote-hold marker: %v", err)
	}
}

// TestCleanBootHasNoNonGrantingWindow: the window is a quarantine
// consequence, not a boot tax — an intact term log boots granting
// (subject only to the ordinary boot-stickiness rule).
func TestCleanBootHasNoNonGrantingWindow(t *testing.T) {
	dir := t.TempDir()
	voter := passiveVoter(t, dir)
	defer voter.Kill()
	voter.mu.Lock()
	armed := !voter.nonGrantingUntil.IsZero()
	voter.mu.Unlock()
	if armed {
		t.Fatal("clean boot armed the non-granting window")
	}
	if resp := voter.HandleVote(voteReq(2, "A")); !resp.Granted {
		t.Fatalf("clean aged boot refused a vote: %+v", resp)
	}
}
