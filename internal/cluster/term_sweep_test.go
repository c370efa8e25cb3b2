package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/wal"
)

// passiveVoter builds a node that participates in vote RPCs but whose
// own timers are parked an hour out, so the test fully controls every
// protocol interaction.
func passiveVoter(t *testing.T, dir string) *Node {
	t.Helper()
	n, err := NewNode(&memSvc{}, Config{
		NodeID:            "voter",
		SelfURL:           "http://voter",
		Peers:             []string{"http://a", "http://b", "http://c"},
		DataDir:           dir,
		PullInterval:      time.Hour,
		ElectionTimeout:   time.Hour,
		HeartbeatInterval: time.Hour,
		NoSync:            true,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	// These sweeps pin the durable votedFor invariant, not the restart
	// stickiness window (TestRestartedVoterSticky covers that): expire it
	// so every HandleVote below exercises the grant rules directly.
	ageBoot(n)
	return n
}

func voteReq(term uint64, candidate string) VoteRequest {
	return VoteRequest{Term: term, Candidate: candidate, CandidateURL: "http://" + candidate}
}

// TestTermRecordDoubleVoteAfterRestart is the direct statement of the
// invariant: grant, kill -9, restart, and the same term's vote must
// stay spent.
func TestTermRecordDoubleVoteAfterRestart(t *testing.T) {
	dir := t.TempDir()
	voter := passiveVoter(t, dir)
	if resp := voter.HandleVote(voteReq(3, "A")); !resp.Granted {
		t.Fatalf("pristine voter refused term-3 vote: %+v", resp)
	}
	voter.Kill()

	restarted := passiveVoter(t, dir)
	defer restarted.Kill()
	if resp := restarted.HandleVote(voteReq(3, "B")); resp.Granted {
		t.Fatalf("restarted voter granted term 3 twice (first A, now B): %+v", resp)
	}
	if resp := restarted.HandleVote(voteReq(3, "A")); !resp.Granted {
		t.Fatalf("restarted voter refused to re-confirm its own term-3 vote to A: %+v", resp)
	}
	if resp := restarted.HandleVote(voteReq(4, "B")); !resp.Granted {
		t.Fatalf("restarted voter refused a fresh term-4 vote: %+v", resp)
	}
}

// TestTermCompactionFailureKeepsVote fails the on-open compaction of a
// two-record term log — disk full, then a crash before the rename — and
// boots again on a healthy disk: the persisted vote must still be there.
// An empty, clean-looking term.log after one that held a record would
// arm no vote-hold and let the node vote twice in term 5.
func TestTermCompactionFailureKeepsVote(t *testing.T) {
	for _, kind := range []diskfault.Kind{diskfault.KindENOSPC, diskfault.KindCrashRename} {
		t.Run(string(kind), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "term.log")
			ts, _, _, err := openTermStore(path, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := termRecord{Term: 5, VotedFor: "b"}
			for _, rec := range []termRecord{{Term: 4, VotedFor: "a"}, want} {
				if err := ts.save(rec); err != nil {
					t.Fatal(err)
				}
			}
			ts.close()

			inj := diskfault.New(nil)
			if err := inj.Arm(diskfault.Fault{Kind: kind, Path: "term.log"}); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := openTermStore(path, wal.Options{FS: inj.FS()}); err == nil {
				t.Fatal("compaction succeeded under the fault; the drill is void")
			}

			ts, last, quarantined, err := openTermStore(path, wal.Options{})
			if err != nil {
				t.Fatalf("boot after the failed compaction: %v", err)
			}
			defer ts.close()
			if last != want || quarantined {
				t.Fatalf("after a failed compaction: last = %+v quarantined = %t, want %+v on a clean log", last, quarantined, want)
			}
		})
	}
}
