package cluster

import (
	"os"
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

// TestTermRecordKillAtEveryOffset crashes a voter at every byte offset
// of its persisted term record and proves the double-vote invariant
// survives each one: if a granted vote's record was durable before the
// crash, the restarted node refuses any other candidate in that term;
// if the record is torn or missing, the grant response was never sent
// (the node persists BEFORE responding), so re-granting in that term is
// a retry, not a second vote.
//
// The scenario: the voter grants term 5 to candidate A, then grants
// term 7 to candidate C (persisting a step-down to term 7 on the way).
// We then replay recovery from every prefix of the resulting term.log
// and ask rival candidate B for votes in terms 5 and 7.
func TestTermRecordKillAtEveryOffset(t *testing.T) {
	seedDir := t.TempDir()
	termPath := func(dir string) string { return filepath.Join(dir, "term.log") }

	voter := passiveVoter(t, seedDir)
	if resp := voter.HandleVote(voteReq(5, "A")); !resp.Granted {
		t.Fatalf("pristine voter refused term-5 vote for A: %+v", resp)
	}
	st, err := os.Stat(termPath(seedDir))
	if err != nil {
		t.Fatalf("stat term.log: %v", err)
	}
	grantASize := st.Size() // everything below this offset tears the (5,A) record
	if resp := voter.HandleVote(voteReq(7, "C")); !resp.Granted {
		t.Fatalf("voter refused term-7 vote for C: %+v", resp)
	}
	voter.Kill()
	full, err := os.ReadFile(termPath(seedDir))
	if err != nil {
		t.Fatalf("reading term.log: %v", err)
	}
	if grantASize <= 0 || int64(len(full)) <= grantASize {
		t.Fatalf("term.log did not grow as expected: grant A at %d bytes, final %d", grantASize, len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(termPath(dir), full[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: writing truncated term.log: %v", cut, err)
		}
		// Recovery must never fail, whatever the tear point: a torn term
		// record means a response that was never sent.
		n := passiveVoter(t, dir)

		// Term 5: only a fully durable (5,A) grant forbids granting B.
		wantGrant5 := int64(cut) < grantASize
		if resp := n.HandleVote(voteReq(5, "B")); resp.Granted != wantGrant5 {
			t.Fatalf("cut %d: term-5 vote for B granted=%t, want %t (grant A durable at %d bytes, resp %+v)",
				cut, resp.Granted, wantGrant5, grantASize, resp)
		}
		// Term 7: forbidden only once the (7,C) grant itself is durable.
		// (A durable step-down to term 7 with no vote cast still allows B.)
		wantGrant7 := cut < len(full)
		if resp := n.HandleVote(voteReq(7, "B")); resp.Granted != wantGrant7 {
			t.Fatalf("cut %d: term-7 vote for B granted=%t, want %t (grant C durable at %d bytes, resp %+v)",
				cut, resp.Granted, wantGrant7, len(full), resp)
		}
		n.Kill()
	}
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
