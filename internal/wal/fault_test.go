package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"conprobe/internal/diskfault"
	"conprobe/internal/obs"
)

// TestFsyncFailurePoisonsLog pins the fsyncgate rule: after one failed
// fsync the handle is poisoned — no later append can claim durability,
// even though a retried fsync would "succeed".
func TestFsyncFailurePoisonsLog(t *testing.T) {
	in := diskfault.New(nil)
	reg := obs.NewRegistry()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{FS: in.FS(), Metrics: reg.Scope("wal")})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if err := l.Append([]byte("acked")); err != nil {
		t.Fatalf("clean append: %v", err)
	}
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindFsyncGate}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := l.Append([]byte("lost")); err == nil {
		t.Fatal("append through a failed fsync reported durability")
	}
	if l.Poisoned() == nil {
		t.Fatal("log not poisoned after fsync failure")
	}
	// Every later append must fail with the poison error: the handle may
	// have silently lost the unsynced bytes.
	if err := l.Append([]byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on poisoned log: %v, want ErrPoisoned", err)
	}
	if err := l.Rewrite(nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("rewrite on poisoned log: %v, want ErrPoisoned", err)
	}
	// Reopening replays only what is actually on disk: the acked record
	// survived (its fsync succeeded), the unacked one is gone.
	l.Close()
	l2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rep.Records) != 1 || string(rep.Records[0]) != "acked" {
		t.Fatalf("reopen replayed %d records %q, want just the acked one", len(rep.Records), rep.Records)
	}
	// The poison counter surfaced through obs.
	var poisons uint64
	for _, s := range reg.Snapshot() {
		if strings.Contains(s.Name, "fsync_poisoned_total") {
			poisons += uint64(s.Value)
		}
	}
	if poisons != 1 {
		t.Fatalf("fsync_poisoned_total = %d, want 1", poisons)
	}
}

// TestTornWriteRepairedAtFrameBoundary proves a short frame write never
// leaves damage in the middle of the log: the failed append truncates
// back to the last good frame and later appends land clean.
func TestTornWriteRepairedAtFrameBoundary(t *testing.T) {
	in := diskfault.New(nil)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{FS: in.FS()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if err := l.Append([]byte("first")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindTorn, Seed: 5}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := l.Append([]byte("torn-away")); err == nil {
		t.Fatal("torn append reported success")
	}
	if l.Poisoned() != nil {
		t.Fatalf("repairable torn write poisoned the log: %v", l.Poisoned())
	}
	// The log is still usable and the next record lands at a clean
	// frame boundary.
	if err := l.Append([]byte("second")); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	l.Close()
	_, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	want := []string{"first", "second"}
	if len(rep.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d (%q)", len(rep.Records), len(want), rep.Records)
	}
	for i, w := range want {
		if string(rep.Records[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, rep.Records[i], w)
		}
	}
	if rep.Note != "" {
		t.Fatalf("unexpected replay note after clean repair: %q", rep.Note)
	}
}

// reopenFailFS wraps the real filesystem so a test can make a log's
// reopen after a rewrite fail once *mode is set: "open" refuses to open
// an existing file without O_CREATE (which only Rewrite's reopen does),
// "seek" fails every Seek on handles opened from then on.
type reopenFailFS struct {
	diskfault.FS
	mode *string
}

func (s reopenFailFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	if *s.mode == "open" && flag&os.O_CREATE == 0 {
		return nil, errors.New("injected open failure")
	}
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return seekFailFile{File: f, fail: *s.mode == "seek"}, nil
}

type seekFailFile struct {
	diskfault.File
	fail bool
}

func (f seekFailFile) Seek(offset int64, whence int) (int64, error) {
	if f.fail {
		return 0, errors.New("injected seek failure")
	}
	return f.File.Seek(offset, whence)
}

// TestRewriteReopenFailurePoisons: once the rename has happened the old
// handle writes to an unlinked file, so if the path cannot be reopened —
// or the new handle cannot be positioned at its end — the log must
// poison rather than let a later append be acked into the file nobody
// will read. The rewrite itself took effect: a reopen replays the new
// content, and the fresh handle is usable.
func TestRewriteReopenFailurePoisons(t *testing.T) {
	for _, failure := range []string{"open", "seek"} {
		t.Run(failure, func(t *testing.T) {
			mode := ""
			path := filepath.Join(t.TempDir(), "wal.log")
			l, _, err := Open(path, Options{FS: reopenFailFS{FS: diskfault.OS, mode: &mode}})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer l.Close()
			for _, rec := range []string{"one", "two"} {
				if err := l.Append([]byte(rec)); err != nil {
					t.Fatalf("append %q: %v", rec, err)
				}
			}
			mode = failure
			if err := l.Rewrite([][]byte{[]byte("both")}); err == nil {
				t.Fatal("Rewrite with a failing reopen reported success")
			}
			if l.Poisoned() == nil {
				t.Fatal("log not poisoned after the post-rename reopen failed")
			}
			if err := l.Append([]byte("after")); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("append on poisoned log: %v, want ErrPoisoned", err)
			}
			mode = ""
			l.Close()
			l2, rep, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			if len(rep.Records) != 1 || string(rep.Records[0]) != "both" {
				t.Fatalf("reopen replayed %q, want the rewritten log", rep.Records)
			}
			if err := l2.Append([]byte("fresh")); err != nil {
				t.Fatalf("append after reopen: %v", err)
			}
		})
	}
}

// TestRewriteFailureBeforeRenameKeepsLog: a rewrite that fails before
// its rename — the temp write tears, the disk is full, the temp's fsync
// fails, the process dies at the rename — leaves the old records on disk
// and the handle healthy: the next append lands after them.
func TestRewriteFailureBeforeRenameKeepsLog(t *testing.T) {
	for _, kind := range []diskfault.Kind{
		diskfault.KindTorn, diskfault.KindENOSPC, diskfault.KindFsyncGate, diskfault.KindCrashRename,
	} {
		t.Run(string(kind), func(t *testing.T) {
			in := diskfault.New(nil)
			path := filepath.Join(t.TempDir(), "wal.log")
			l, _, err := Open(path, Options{FS: in.FS()})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer l.Close()
			for _, rec := range []string{"one", "two"} {
				if err := l.Append([]byte(rec)); err != nil {
					t.Fatalf("append %q: %v", rec, err)
				}
			}
			if err := in.Arm(diskfault.Fault{Kind: kind, Path: ".log.tmp", Seed: 3}); err != nil {
				t.Fatal(err)
			}
			if err := l.Rewrite([][]byte{[]byte("both")}); err == nil {
				t.Fatal("Rewrite under the fault reported success; the drill is void")
			}
			if err := l.Poisoned(); err != nil {
				t.Fatalf("a rewrite that never renamed poisoned the log: %v", err)
			}
			if err := l.Append([]byte("three")); err != nil {
				t.Fatalf("append after the failed rewrite: %v", err)
			}
			l.Close()
			if got, want := replayed(t, path), []string{"one", "two", "three"}; !slices.Equal(got, want) {
				t.Fatalf("log holds %q, want %q", got, want)
			}
			// The next rewrite clears whatever temp the failed one left.
			l2, _, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if err := l2.Rewrite([][]byte{[]byte("all three")}); err != nil {
				t.Fatalf("rewrite after the failed one: %v", err)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}
}

// syncedLenFS remembers, per path, how long the file was at its last
// successful fsync, and follows renames — the model bench/countfs.go
// cuts files back to when it simulates a power failure.
type syncedLenFS struct {
	diskfault.FS
	synced map[string]int64
}

type syncedLenFile struct {
	diskfault.File
	fs   syncedLenFS
	path string
}

func (s syncedLenFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if _, ok := s.synced[name]; !ok {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		s.synced[name] = st.Size()
	}
	return syncedLenFile{File: f, fs: s, path: name}, nil
}

func (s syncedLenFS) Rename(oldpath, newpath string) error {
	if err := s.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	s.synced[newpath] = s.synced[oldpath]
	delete(s.synced, oldpath)
	return nil
}

func (f syncedLenFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	st, err := f.File.Stat()
	if err != nil {
		return err
	}
	f.fs.synced[f.path] = st.Size()
	return nil
}

// TestRewriteKeepsSyncedLengthHonest: a filesystem shim that tracks each
// path's length at its last fsync must, after a rewrite and further
// appends, say that the whole file is durable — which it does only if
// the new file is reopened by path (not kept as the temp's descriptor,
// whose syncs the shim files under the temp's name) and the replaced
// handle is never synced after the rename (which would record the old
// file's length against the new one).
func TestRewriteKeepsSyncedLengthHonest(t *testing.T) {
	fsys := syncedLenFS{FS: diskfault.OS, synced: make(map[string]int64)}
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range []string{"a long first record, longer than the rewritten log", "two"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite([][]byte{[]byte("s")}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fsys.synced[path]; got != st.Size() {
			t.Fatalf("%s: %d of %d bytes count as synced: a power cut would drop acked records", when, got, st.Size())
		}
	}
	check("after the rewrite")
	if err := l.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	check("after an append to the rewritten log")
	if len(fsys.synced) != 1 {
		t.Fatalf("shim tracks %v, want only the log", fsys.synced)
	}
}

// TestQuarantineSidecarsMidLogCorruption: with Quarantine set, mid-log
// damage moves the whole file to a .corrupt sidecar and the log reopens
// empty instead of refusing to boot.
func TestQuarantineSidecarsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "oplog.log")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, rec := range []string{"one", "two", "three"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatalf("append %q: %v", rec, err)
		}
	}
	l.Close()
	// Flip a payload byte of the FIRST record: mid-log damage, not a
	// torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	raw[FrameHeader] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Without Quarantine: refuse, positioned.
	if _, _, err := Open(path, Options{}); err == nil {
		t.Fatal("corrupt log opened without Quarantine")
	}

	reg := obs.NewRegistry()
	l2, rep, err := Open(path, Options{Quarantine: true, Metrics: reg.Scope("wal")})
	if err != nil {
		t.Fatalf("quarantine open: %v", err)
	}
	defer l2.Close()
	if !rep.Quarantined || len(rep.Records) != 0 {
		t.Fatalf("replay = %+v, want quarantined and empty", rep)
	}
	side, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("sidecar missing: %v", err)
	}
	if string(side) != string(raw) {
		t.Fatal("sidecar does not hold the damaged bytes")
	}
	// The reopened log works.
	if err := l2.Append([]byte("fresh")); err != nil {
		t.Fatalf("append after quarantine: %v", err)
	}
	var quarantines uint64
	for _, s := range reg.Snapshot() {
		if strings.Contains(s.Name, "wal_quarantined_segments") {
			quarantines += uint64(s.Value)
		}
	}
	if quarantines != 1 {
		t.Fatalf("wal_quarantined_segments = %d, want 1", quarantines)
	}
}

// TestQuarantineClobbersOldSidecar: a second incident replaces the
// sidecar from the first instead of failing the open.
func TestQuarantineClobbersOldSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "oplog.log")
	if err := os.WriteFile(path+".corrupt", []byte("old incident"), 0o644); err != nil {
		t.Fatalf("seed old sidecar: %v", err)
	}
	// Two intact frames then flip the first payload byte.
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l.Append([]byte("aa"))
	l.Append([]byte("bb"))
	l.Close()
	raw, _ := os.ReadFile(path)
	raw[FrameHeader] ^= 0x01
	os.WriteFile(path, raw, 0o644)

	l2, rep, err := Open(path, Options{Quarantine: true})
	if err != nil {
		t.Fatalf("quarantine open: %v", err)
	}
	defer l2.Close()
	if !rep.Quarantined {
		t.Fatalf("replay = %+v, want quarantined", rep)
	}
	side, _ := os.ReadFile(path + ".corrupt")
	if string(side) == "old incident" {
		t.Fatal("old sidecar survived; new damage lost")
	}
}

// TestSnapshotStaleTmpNeverAdopted: a half-written temp file from a
// crashed prior run must be discarded, not renamed into place.
func TestSnapshotStaleTmpNeverAdopted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.snap")
	// A stale temp at the fixed name, holding garbage.
	if err := os.WriteFile(path+".tmp", []byte("halfwritten-garbage"), 0o600); err != nil {
		t.Fatalf("seed stale tmp: %v", err)
	}
	if err := WriteSnapshot(path, []byte("good state")); err != nil {
		t.Fatalf("WriteSnapshot over stale tmp: %v", err)
	}
	payload, ok, err := ReadSnapshot(path)
	if err != nil || !ok || string(payload) != "good state" {
		t.Fatalf("readback = %q, %t, %v", payload, ok, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestSnapshotMode pins the injected-permission satellite: a mode given
// to WriteSnapshotFS reaches the file.
func TestSnapshotMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.snap")
	if err := WriteSnapshotFS(nil, path, []byte("s"), 0o600); err != nil {
		t.Fatalf("WriteSnapshotFS: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Mode().Perm() != 0o600 {
		t.Fatalf("snapshot mode %v, want 0600", st.Mode().Perm())
	}
}

// TestSnapshotCrashBeforeRenameKeepsOld: an injected rename failure
// leaves the previous snapshot intact and readable.
func TestSnapshotCrashBeforeRenameKeepsOld(t *testing.T) {
	in := diskfault.New(nil)
	path := filepath.Join(t.TempDir(), "node.snap")
	if err := WriteSnapshotFS(in.FS(), path, []byte("v1"), 0); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindCrashRename}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := WriteSnapshotFS(in.FS(), path, []byte("v2"), 0); err == nil {
		t.Fatal("snapshot write through failed rename reported success")
	}
	payload, ok, err := ReadSnapshotFS(in.FS(), path)
	if err != nil || !ok || string(payload) != "v1" {
		t.Fatalf("after failed replace: %q, %t, %v — old snapshot must survive", payload, ok, err)
	}
	// And the NEXT snapshot attempt succeeds even though the temp from
	// the failed one may linger.
	if err := WriteSnapshotFS(in.FS(), path, []byte("v3"), 0); err != nil {
		t.Fatalf("snapshot after failed rename: %v", err)
	}
	if payload, _, _ = ReadSnapshotFS(in.FS(), path); string(payload) != "v3" {
		t.Fatalf("final snapshot = %q, want v3", payload)
	}
}

// TestSnapshotBitFlipDetected: a read-side bit flip in the snapshot is
// caught by the CRC and reported, never silently returned.
func TestSnapshotBitFlipDetected(t *testing.T) {
	in := diskfault.New(nil)
	path := filepath.Join(t.TempDir(), "node.snap")
	if err := WriteSnapshotFS(in.FS(), path, []byte("sensitive state"), 0); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindBitFlip, Seed: 99}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	_, _, err := ReadSnapshotFS(in.FS(), path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bit-flipped snapshot read: %v, want *CorruptError", err)
	}
}

// TestSnapshotENOSPCKeepsOld: no space for the temp file leaves the
// previous snapshot untouched.
func TestSnapshotENOSPCKeepsOld(t *testing.T) {
	in := diskfault.New(nil)
	path := filepath.Join(t.TempDir(), "node.snap")
	if err := WriteSnapshotFS(in.FS(), path, []byte("v1"), 0); err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindENOSPC, Sticky: true}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := WriteSnapshotFS(in.FS(), path, []byte("v2"), 0); err == nil {
		t.Fatal("snapshot write on a full disk reported success")
	}
	payload, ok, err := ReadSnapshotFS(in.FS(), path)
	if err != nil || !ok || string(payload) != "v1" {
		t.Fatalf("after ENOSPC: %q, %t, %v — old snapshot must survive", payload, ok, err)
	}
}

// TestDirSyncOmissionIsBounded documents the limit of the model: an
// omitted directory sync cannot be detected by the writer (the API
// reports success), but the data file itself was still synced, so the
// exposure is only the rename's directory entry — either the old or the
// new complete snapshot is visible after a crash, never a mix.
func TestDirSyncOmissionIsBounded(t *testing.T) {
	in := diskfault.New(nil)
	path := filepath.Join(t.TempDir(), "node.snap")
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindDirSyncOmit}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := WriteSnapshotFS(in.FS(), path, []byte("v1"), 0); err != nil {
		t.Fatalf("snapshot with omitted dir sync: %v", err)
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1 (the dir sync)", in.Injected())
	}
	payload, ok, err := ReadSnapshotFS(in.FS(), path)
	if err != nil || !ok || string(payload) != "v1" {
		t.Fatalf("snapshot unreadable after omitted dir sync: %q, %t, %v", payload, ok, err)
	}
}

// countSyncFS counts fsyncs on files opened through it.
type countSyncFS struct {
	diskfault.FS
	syncs *int
}

type countSyncFile struct {
	diskfault.File
	syncs *int
}

func (fs countSyncFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countSyncFile{File: f, syncs: fs.syncs}, nil
}

func (f countSyncFile) Sync() error {
	*f.syncs++
	return f.File.Sync()
}

// TestAppendBatch: a batch is one frame per payload — replay cannot
// tell it from as many single appends — made durable by one fsync, and a
// write the disk refuses leaves none of it behind.
func TestAppendBatch(t *testing.T) {
	in := diskfault.New(nil)
	syncs := 0
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{FS: countSyncFS{FS: in.FS(), syncs: &syncs}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	syncs = 0
	if err := l.AppendBatch([][]byte{[]byte("two"), {}, []byte("four")}); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if syncs != 1 {
		t.Fatalf("a batch of three cost %d fsyncs, want 1", syncs)
	}
	if err := l.AppendBatch(nil); err != nil || syncs != 1 {
		t.Fatalf("empty batch: err %v, %d fsyncs", err, syncs)
	}
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindTorn, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("lost-a"), []byte("lost-b")}); err == nil {
		t.Fatal("a torn batch write reported durability")
	}
	if err := l.Append([]byte("five")); err != nil {
		t.Fatalf("append after the repaired batch: %v", err)
	}
	l.Close()
	rep, err := ReadFS(nil, path)
	if err != nil || rep.Note != "" {
		t.Fatalf("replay: %v, note %q", err, rep.Note)
	}
	var got []string
	for _, r := range rep.Records {
		got = append(got, string(r))
	}
	if want := []string{"one", "two", "", "four", "five"}; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

// TestWriteThenSync: Write returns the record count through its record,
// and Write followed by Sync of that count leaves what Append leaves.
func TestWriteThenSync(t *testing.T) {
	dir := t.TempDir()
	payloads := []string{"one", "", "three"}
	openAppend(t, filepath.Join(dir, "append.log"), payloads...)

	syncs := 0
	path := filepath.Join(dir, "write.log")
	l, _, err := Open(path, Options{FS: countSyncFS{FS: diskfault.OS, syncs: &syncs}})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, p := range payloads {
		n, err := l.Write([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(i+1) {
			t.Fatalf("Write %d returned count %d, want %d", i, n, i+1)
		}
		last = n
	}
	if syncs != 0 {
		t.Fatalf("Write issued %d fsyncs, want none", syncs)
	}
	if err := l.Sync(last); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("Sync of three written records cost %d fsyncs, want 1", syncs)
	}
	l.Close()
	if got, want := replayed(t, path), replayed(t, filepath.Join(dir, "append.log")); !slices.Equal(got, want) {
		t.Fatalf("Write+Sync replays %q, Append %q", got, want)
	}
}

// TestSyncOfDurableRecordsIssuesNoFsync: a Sync for records an earlier
// fsync already covered returns without one, and so does every Sync
// under NoSync.
func TestSyncOfDurableRecordsIssuesNoFsync(t *testing.T) {
	for _, nosync := range []bool{false, true} {
		syncs := 0
		l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"),
			Options{NoSync: nosync, FS: countSyncFS{FS: diskfault.OS, syncs: &syncs}})
		if err != nil {
			t.Fatal(err)
		}
		first, err := l.Write([]byte("a"))
		if err != nil {
			t.Fatal(err)
		}
		second, err := l.Write([]byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(second); err != nil {
			t.Fatal(err)
		}
		want := 1
		if nosync {
			want = 0
		}
		for _, n := range []uint64{0, first, second} {
			if err := l.Sync(n); err != nil {
				t.Fatal(err)
			}
		}
		if syncs != want {
			t.Fatalf("NoSync %t: %d fsyncs, want %d", nosync, syncs, want)
		}
		l.Close()
	}
}

// TestSyncAfterFailedFsyncReturnsPoison: once an fsync fails, a Sync for
// any record it did not make durable returns the poison, and the log
// refuses every later Write.
func TestSyncAfterFailedFsyncReturnsPoison(t *testing.T) {
	in := diskfault.New(nil)
	l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{FS: in.FS()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	durable, err := l.Write([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(durable); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(diskfault.Fault{Kind: diskfault.KindFsyncGate}); err != nil {
		t.Fatal(err)
	}
	lost, err := l.Write([]byte("lost"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lost); err == nil {
		t.Fatal("Sync through a failed fsync reported durability")
	}
	if err := l.Sync(lost); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Sync on a poisoned log: %v, want ErrPoisoned", err)
	}
	if err := l.Sync(durable); err != nil {
		t.Fatalf("Sync of a record durable before the failure: %v", err)
	}
	if _, err := l.Write([]byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Write on a poisoned log: %v, want ErrPoisoned", err)
	}
}
