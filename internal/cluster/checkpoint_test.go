package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"conprobe/internal/diskfault"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/wal"
)

// countFS counts the bytes a node writes to its oplog, a rewrite's temp
// file included, and the renames that install a rewrite.
type countFS struct {
	diskfault.FS
	bytes, renames atomic.Int64
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "oplog.log") {
		return f, err
	}
	return countFile{File: f, n: &c.bytes}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

type countFile struct {
	diskfault.File
	n *atomic.Int64
}

func (f countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// TestGrowOnlyOplogBytes: writes that nothing clears leave no record of
// the oplog dead, so a checkpoint is one small commit record and the
// file is never rewritten after the open. What reaches the oplog per
// write is then its own frame plus a share of a commit record — not, as
// when every checkpoint rewrote the state, a growing share of the state.
func TestGrowOnlyOplogBytes(t *testing.T) {
	const every, writes = 64, 16 * 64
	fs := &countFS{FS: diskfault.OS}
	dir := t.TempDir()
	n, err := NewNode(dropSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: dir, NoSync: true, SnapshotEvery: every, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	opened, renames := fs.bytes.Load(), fs.renames.Load()
	for i := range writes {
		p := service.Post{ID: fmt.Sprintf("p-%d", i), Author: "alice", Body: "a post body of ordinary length"}
		if err := n.Write(simnet.DCWest, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.renames.Load() - renames; got != 0 {
		t.Fatalf("%d rewrites after the open of a grow-only oplog, want none", got)
	}
	rep, err := wal.ReadFS(nil, filepath.Join(dir, "oplog.log"))
	if err != nil {
		t.Fatal(err)
	}
	frames, ops, commits := 0, 0, 0
	for _, rec := range rep.Records[1:] {
		if _, is, _ := decodeCommit(rec); is {
			commits++
			continue
		}
		frames += wal.FrameHeader + len(rec)
		ops++
	}
	mean := float64(frames) / float64(ops)
	perWrite := float64(fs.bytes.Load()-opened) / writes
	t.Logf("oplog bytes per write: %.0f B (mean op frame %.0f B; %d commit records over %d writes, SnapshotEvery %d)",
		perWrite, mean, commits, writes, every)
	if ops != writes || commits != writes/every {
		t.Fatalf("the oplog holds %d ops and %d commit records, want %d and %d", ops, commits, writes, writes/every)
	}
	if perWrite > 2*mean {
		t.Fatalf("%.0f oplog bytes per write, more than twice the mean op frame of %.0f B", perWrite, mean)
	}
}

// TestRestartServesThroughLastCommitRecord kills a leader whose oplog
// holds commit records and restarts it where no peer can reach it: it
// must serve every write through the last commit record at once, its
// commit index there, and hold the ops after it in its tail for a
// leader to commit. A torn final commit record is dropped like any torn
// tail, and the restart serves through the one before it.
func TestRestartServesThroughLastCommitRecord(t *testing.T) {
	cfg := parked(Config{
		NodeID: "n1", SelfURL: "http://n1", Peers: []string{"http://n2"}, Role: RoleLeader,
		SnapshotEvery: 4, NoSync: true, Transport: &captureTransport{},
	})
	seed := t.TempDir()
	cfg.DataDir = seed
	n, err := NewNode(&memSvc{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(seed, "oplog.log")
	// Write, each committed by n2's ack, until the oplog ends in its
	// third commit record.
	var rep wal.Replay
	for i, commits := 0, 0; commits < 3; i++ {
		if _, err := n.ProposeWrite(simnet.DCWest, service.Post{ID: fmt.Sprintf("w%d", i), Author: "a1", Body: "x"}); err != nil {
			t.Fatal(err)
		}
		ackHead(n, "http://n2", "n2")
		if rep, err = wal.ReadFS(nil, path); err != nil {
			t.Fatal(err)
		}
		if _, is, _ := decodeCommit(rep.Records[len(rep.Records)-1]); is {
			commits++
		}
	}
	// One more write, committed, and journaled after the last commit record.
	if _, err := n.ProposeWrite(simnet.DCWest, service.Post{ID: "after", Author: "a1", Body: "x"}); err != nil {
		t.Fatal(err)
	}
	ackHead(n, "http://n2", "n2")
	head := n.LastIndex()
	n.Kill()
	if rep, err = wal.ReadFS(nil, path); err != nil {
		t.Fatal(err)
	}
	if snap := rep.Records[0]; !bytes.HasPrefix(snap, []byte(`{"last_index":0,`)) {
		t.Fatalf("the oplog was rewritten since the open (%s): the drill needs its commit records", snap)
	}
	// owed lists the writes through the commit record at records[at],
	// and its index.
	owed := func(at int) ([]string, uint64) {
		commit, _, _ := decodeCommit(rep.Records[at])
		var ids []string
		for _, rec := range rep.Records[1:at] {
			var op Op
			if _, is, _ := decodeCommit(rec); !is && op.decode(rec) == nil && op.Kind == opWrite && op.Index <= commit {
				ids = append(ids, op.ID)
			}
		}
		return ids, commit
	}
	var commitAt []int // positions of the commit records
	for i, rec := range rep.Records {
		if _, is, _ := decodeCommit(rec); is {
			commitAt = append(commitAt, i)
		}
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	term, err := os.ReadFile(filepath.Join(seed, "term.log"))
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := wal.FrameHeader + len(rep.Records[len(rep.Records)-1])
	for _, c := range []struct {
		name  string
		raw   []byte
		owed  int // the position of the commit record owed
		torn  bool
		holds uint64
	}{
		{"intact", full, commitAt[2], false, head},
		// The oplog ends in the last commit record once the op after it
		// is cut away; cutting 3 bytes more tears that record.
		{"torn", full[:len(full)-lastFrame-3], commitAt[1], true, head - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "oplog.log"), c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "term.log"), term, 0o644); err != nil {
				t.Fatal(err)
			}
			if rep, err := wal.ReadFS(nil, filepath.Join(dir, "oplog.log")); err != nil || strings.Contains(rep.Note, "torn") != c.torn {
				t.Fatalf("the oplog reads with note %q, %v: want a torn tail %t", rep.Note, err, c.torn)
			}
			rcfg := cfg
			rcfg.DataDir = dir
			r, err := NewNode(&memSvc{}, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Kill()
			wantIDs, wantCommit := owed(c.owed)
			if got := ids(t, r); !slices.Equal(got, wantIDs) {
				t.Fatalf("restarted node serves %v, want %v: the writes through commit %d", got, wantIDs, wantCommit)
			}
			if got := r.CommitIndex(); got != wantCommit {
				t.Fatalf("restarted at commit %d, want %d", got, wantCommit)
			}
			if got := r.LastIndex(); got != c.holds {
				t.Fatalf("restarted holding through %d, want %d", got, c.holds)
			}
			if r.Rebuilding() {
				t.Fatalf("restarted rebuilding (notes %v): a torn tail is no loss to re-source", r.StorageNotes())
			}
		})
	}
}
