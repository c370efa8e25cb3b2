package cluster

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/checkpoint"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/wal"
)

// durableFile is one row of TestDurableFileSweep: a file some layer
// keeps its acknowledged state in.
type durableFile struct {
	// name is the file, inside its data directory.
	name string
	// write builds a history in dir, never compacting once the file has
	// its first record, and says what the file must recover to: initial
	// while not even the first step is whole, then each step's state once
	// that many bytes are.
	write func(t *testing.T, dir string) (initial string, steps []sweepStep)
	// recover opens dir, whose file has been damaged, and returns the
	// state it shows: declared when the layer refused to open the file or
	// set it aside, a state in write's vocabulary otherwise.
	recover func(t *testing.T, dir string) string
}

// sweepStep is one acknowledged state of a durableFile: durable — and
// so owed by every recovery — once the file's first size bytes are.
type sweepStep struct {
	size  int64
	state string
}

// declared is the state of a file whose damage the layer reported.
const declared = "declared"

// durableFiles are the three files of the repository that hold
// acknowledged state, each a wal.Log: what differs between them is what
// "acknowledged" means, never how a damaged file is read.
var durableFiles = []durableFile{
	{name: "oplog.log", write: writeOplogHistory, recover: recoverOplog},
	{name: "term.log", write: writeTermHistory, recover: recoverTerm},
	journalFile(),
}

// TestDurableFileSweep cuts every durable file at every byte offset and
// flips every one of its bytes, and requires the same two things of each
// layer. A cut is a crash: recovery never fails and shows exactly what
// was acknowledged once the surviving bytes were on disk — nothing the
// cut tore, nothing less than it spared. A flip is rot: mid-file it is
// declared (the open is refused, or the file is set aside as a .corrupt
// sidecar), and where the scan cannot tell it from a torn tail — the
// final frame, or a length field that swallows the rest of the file —
// recovery shows what the intact prefix acknowledged, never a state that
// contradicts a record that survived.
func TestDurableFileSweep(t *testing.T) {
	for _, row := range durableFiles {
		t.Run(row.name, func(t *testing.T) {
			seed := t.TempDir()
			initial, steps := row.write(t, seed)
			full, err := os.ReadFile(filepath.Join(seed, row.name))
			if err != nil {
				t.Fatal(err)
			}
			if last := steps[len(steps)-1].size; last != int64(len(full)) {
				t.Fatalf("history ends at %d bytes, file has %d: a step is missing", last, len(full))
			}
			t.Logf("%d bytes; before the first step %q, then %v", len(full), initial, steps)
			// owed is the state a file whose first valid bytes are intact
			// must recover to.
			owed := func(valid int64) string {
				state := initial
				for _, s := range steps {
					if s.size <= valid {
						state = s.state
					}
				}
				return state
			}
			// damaged returns a copy of the history's directory with the
			// file's content replaced by raw.
			entries, err := os.ReadDir(seed)
			if err != nil {
				t.Fatal(err)
			}
			files := make(map[string][]byte, len(entries))
			for _, e := range entries {
				if files[e.Name()], err = os.ReadFile(filepath.Join(seed, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
			damaged := func(raw []byte) string {
				dir := t.TempDir()
				files[row.name] = raw
				for name, data := range files {
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				return dir
			}
			t.Run("cut", func(t *testing.T) {
				for cut := 0; cut <= len(full); cut++ {
					if got, want := row.recover(t, damaged(full[:cut])), owed(int64(cut)); got != want {
						t.Fatalf("cut at %d: recovered %q, want %q", cut, got, want)
					}
				}
			})
			t.Run("flip", func(t *testing.T) {
				for off := range full {
					raw := bytes.Clone(full)
					raw[off] ^= 0xff
					want := declared
					if valid, ok := intactPrefix(t, raw); ok {
						want = owed(valid)
					}
					if got := row.recover(t, damaged(raw)); got != want {
						t.Fatalf("flip at %d: recovered %q, want %q", off, got, want)
					}
				}
			})
		})
	}
}

// intactPrefix asks wal.Open itself (non-quarantining) what recovery
// will make of a damaged file: corruption (ok false), or a tolerated
// prefix of whole records, valid bytes long.
func intactPrefix(t *testing.T, raw []byte) (valid int64, ok bool) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "oracle.log")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	lg, rep, err := wal.Open(path, wal.Options{NoSync: true})
	if err != nil {
		return 0, false
	}
	lg.Close()
	for _, rec := range rep.Records {
		valid += int64(wal.FrameHeader + len(rec))
	}
	return valid, true
}

// fileSize is the current length of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// oplogState is what a node shows of its oplog: the voting
// configuration and the writes it holds, applied or journaled past its
// commit index — a recovered node applies only its snapshot until a
// leader re-establishes what committed.
func oplogState(t *testing.T, n *Node) string {
	m := n.Membership()
	held := ids(t, n)
	for _, op := range n.TailOps() {
		if op.Index > n.CommitIndex() && op.Kind == opWrite {
			held = append(held, op.ID)
		}
	}
	return fmt.Sprintf("%s n3=%t %v", m.describe(), m.InNew("http://n3"), held)
}

// writeOplogHistory: two writes, then a reconfiguration whose joint
// C(old,new) entry and final C(new) entry are both journaled. A node
// that regresses past a durable config record can form quorums the rest
// of the cluster no longer recognizes; one that adopts a config ahead of
// its prefix votes in a cluster it was never told about.
func writeOplogHistory(t *testing.T, dir string) (string, []sweepStep) {
	n := configSweepNode(t, dir)
	defer n.Kill()
	initial := oplogState(t, n)
	var steps []sweepStep
	step := func() {
		steps = append(steps, sweepStep{fileSize(t, filepath.Join(dir, "oplog.log")), oplogState(t, n)})
	}
	for i := 0; i < 2; i++ {
		p := service.Post{ID: fmt.Sprintf("w%d", i), Author: "a1", Body: "x"}
		if _, err := n.ProposeWrite(simnet.DCWest, p); err != nil {
			t.Fatalf("propose %s: %v", p.ID, err)
		}
		step()
	}
	ackHead(n, "http://n2", "n2")
	if got, head := n.CommitIndex(), n.LastIndex(); got != head {
		t.Fatalf("commit %d after full ack, want head %d", got, head)
	}
	if _, err := n.Reconfigure([]Member{{ID: "n3", URL: "http://n3"}}, nil); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if !n.Membership().Joint() {
		t.Fatal("joint config was not adopted on append")
	}
	step()
	// n2 acks the joint entry: it commits under both quorums and the
	// leader appends the final C(new) entry.
	ackHead(n, "http://n2", "n2")
	if n.Membership().Joint() {
		t.Fatal("reconfiguration did not finish after the joint entry committed")
	}
	step()
	if want := "new(3) n3=true [w0 w1]"; steps[3].state != want || steps[2].state != "joint(2+3) n3=true [w0 w1]" {
		t.Fatalf("history ends %q, %q; want the joint and then the settled 3-member config", steps[2].state, want)
	}
	return initial, steps
}

// recoverOplog boots the node on a damaged oplog. A quarantined oplog
// falls all the way back to the boot config with an empty log: the node
// cannot then win an election against any peer that holds the real
// history (its log head is behind), so the regression is recoverable,
// not a safety hole.
func recoverOplog(t *testing.T, dir string) string {
	r := configSweepNode(t, dir)
	defer r.Kill()
	if _, err := os.Stat(filepath.Join(dir, "oplog.log.corrupt")); err != nil {
		return oplogState(t, r)
	}
	// Everything re-sources from the leader: the boot config, an empty
	// log, votes withheld, and a storage note surfacing the incident.
	if m := r.Membership(); m.Joint() || m.Contains("http://n3") {
		t.Fatalf("quarantined oplog resurrected config %s", m.describe())
	}
	if r.LastIndex() != 0 || !r.Rebuilding() || len(r.StorageNotes()) == 0 {
		t.Fatalf("quarantined oplog: index %d, rebuilding %t, notes %v; want 0, true and the incident",
			r.LastIndex(), r.Rebuilding(), r.StorageNotes())
	}
	return declared
}

// bootVoter is passiveVoter without the ageBoot: the boot-stickiness
// window is left armed, as a real restart would have it.
func bootVoter(t *testing.T, dir string) *Node {
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
	return n
}

// termState names which of terms 5 and 7 a rival candidate B can still
// be granted.
func termState(grant5, grant7 bool) string {
	return fmt.Sprintf("B may have term 5: %t, term 7: %t", grant5, grant7)
}

// writeTermHistory: the voter grants term 5 to candidate A, then term 7
// to candidate C (persisting a step-down to term 7 on the way). If a
// granted vote's record was durable before the crash, the restarted node
// refuses any other candidate in that term; if the record is torn or
// missing, the grant response was never sent (the node persists BEFORE
// responding), so re-granting in that term is a retry, not a second
// vote. A durable step-down to term 7 with no vote cast still allows B.
func writeTermHistory(t *testing.T, dir string) (string, []sweepStep) {
	voter := passiveVoter(t, dir)
	defer voter.Kill()
	var steps []sweepStep
	for _, g := range []struct {
		term  uint64
		to    string
		state string
	}{{5, "A", termState(false, true)}, {7, "C", termState(false, false)}} {
		if resp := voter.HandleVote(voteReq(g.term, g.to)); !resp.Granted {
			t.Fatalf("voter refused term-%d vote for %s: %+v", g.term, g.to, resp)
		}
		steps = append(steps, sweepStep{fileSize(t, filepath.Join(dir, "term.log")), g.state})
	}
	return termState(true, true), steps
}

// recoverTerm boots the voter on a damaged term log and asks for B's
// votes. Whatever the damage, nothing is granted inside the
// boot-stickiness window. A quarantined term log may hold forgotten
// votes, so it boots non-granting for a window that — unlike boot
// stickiness — survives ageBoot, in any term.
func recoverTerm(t *testing.T, dir string) string {
	n := bootVoter(t, dir)
	defer n.Kill()
	if n.HandleVote(voteReq(5, "B")).Granted || n.HandleVote(voteReq(7, "B")).Granted {
		t.Fatal("vote granted inside the boot window")
	}
	ageBoot(n)
	grant5, grant7 := n.HandleVote(voteReq(5, "B")).Granted, n.HandleVote(voteReq(7, "B")).Granted
	if _, err := os.Stat(filepath.Join(dir, "term.log.corrupt")); err != nil {
		return termState(grant5, grant7)
	}
	if grant5 || grant7 || n.HandleVote(voteReq(99, "B")).Granted {
		t.Fatal("quarantined term log granted a vote after ageBoot (window lost)")
	}
	return declared
}

// journalFile is the checkpoint journal's row: a small campaign
// journaled round-robin across two lanes. A journal cut at any byte
// loads to exactly the tests whose frames are whole — never a
// half-applied one — and continuing from a cut at or beside a frame
// boundary rebuilds the uninterrupted journal.
func journalFile() durableFile {
	const name, lanes = "campaign.ckpt", 2
	meta := checkpoint.Meta{
		Service: "fbfeed", Seed: 11, Lanes: lanes, Test1Count: 4, Test2Count: 4,
		Start: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	next := func(i int) time.Time { return meta.Start.Add(time.Duration(i+1) * time.Minute) }
	var (
		traces []*trace.TestTrace
		full   []byte
		ends   []int64 // where each frame ends; frame 0 is the meta
	)
	// journalState renders lanes' journaled progress: tests done in
	// order, the next schedule step, and the aggregator by checksum.
	journalState := func(lanes map[int]*checkpoint.LaneRecord) string {
		var b bytes.Buffer
		for lane := 0; lane < len(lanes); lane++ {
			lr := lanes[lane]
			if lr == nil {
				return fmt.Sprintf("lane %d of %d missing", lane, len(lanes))
			}
			fmt.Fprintf(&b, "lane %d done %v next %s agg %08x; ", lane, lr.Done, lr.Next.Format(time.RFC3339), crc32.ChecksumIEEE(lr.Agg.AppendSnapshot(nil)))
		}
		return b.String()
	}
	// folded is the state after the first k tests, computed without the
	// journal: each lane's aggregator fed the lane's traces directly.
	folded := func(t *testing.T, k int) string {
		want := make(map[int]*checkpoint.LaneRecord)
		aggs := make(map[int]*analysis.Aggregator)
		for i, tr := range traces[:k] {
			lane := i % lanes
			if want[lane] == nil {
				want[lane] = &checkpoint.LaneRecord{Lane: lane}
				aggs[lane] = analysis.NewAggregator(meta.Service)
			}
			aggs[lane].Add(tr)
			want[lane].Done = append(want[lane].Done, tr.TestID)
			want[lane].Next = next(i)
		}
		for lane, agg := range aggs {
			want[lane].Agg = agg
		}
		return journalState(want)
	}
	return durableFile{
		name: name,
		write: func(t *testing.T, dir string) (string, []sweepStep) {
			res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
				Workload: probe.Workload{
					Service:    meta.Service,
					Test1Count: meta.Test1Count,
					Test2Count: meta.Test2Count,
					Seed:       meta.Seed,
				},
				Engine: probe.Engine{Lanes: 1},
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			traces = res.Traces
			path := filepath.Join(dir, name)
			w, err := checkpoint.Create(path, meta, checkpoint.Config{})
			if err != nil {
				t.Fatal(err)
			}
			// The meta frame alone is a journal of no tests; less is not a
			// journal at all, and Load says so.
			ends = []int64{fileSize(t, path)}
			steps := []sweepStep{{ends[0], folded(t, 0)}}
			for i, tr := range traces {
				if err := w.Append(i%lanes, tr, next(i), nil); err != nil {
					t.Fatal(err)
				}
				ends = append(ends, fileSize(t, path))
				steps = append(steps, sweepStep{ends[i+1], folded(t, i+1)})
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if full, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			return declared, steps
		},
		recover: func(t *testing.T, dir string) string {
			path := filepath.Join(dir, name)
			st, err := checkpoint.Load(path)
			if err != nil {
				return declared
			}
			got := journalState(st.Lanes)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(full, raw) {
				return got // rot, not a crash: nothing more to say of it
			}
			cut := int64(len(raw))
			if onBoundary := slices.Contains(ends, cut); onBoundary != (st.Note == "") {
				t.Fatalf("cut at %d: note %q, on a frame boundary: %v", cut, st.Note, onBoundary)
			}
			kept, beside := 0, false // test frames that survived the cut
			for i, e := range ends {
				if i > 0 && e <= cut {
					kept++
				}
				beside = beside || (e-1 <= cut && cut <= e+1)
			}
			if !beside {
				return got
			}
			w, err := checkpoint.Continue(path, st, checkpoint.Config{})
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			for i := kept; i < len(traces); i++ {
				if err := w.Append(i%lanes, traces[i], next(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, full) {
				t.Fatalf("cut at %d: continued journal differs from the uninterrupted one (read error %v)", cut, err)
			}
			return got
		},
	}
}
