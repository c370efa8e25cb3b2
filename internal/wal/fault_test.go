package wal

import (
	"errors"
	"os"
	"path/filepath"
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
	if err := l.Truncate(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("truncate on poisoned log: %v, want ErrPoisoned", err)
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

// seekFailFS wraps the real filesystem so a test can make every Seek on
// handles it opened fail once *fail flips true.
type seekFailFS struct {
	base diskfault.FS
	fail *bool
}

func (s seekFailFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := s.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return seekFailFile{File: f, fail: s.fail}, nil
}
func (s seekFailFS) Rename(oldpath, newpath string) error  { return s.base.Rename(oldpath, newpath) }
func (s seekFailFS) Remove(name string) error              { return s.base.Remove(name) }
func (s seekFailFS) Stat(name string) (os.FileInfo, error) { return s.base.Stat(name) }
func (s seekFailFS) SyncDir(dir string) error              { return s.base.SyncDir(dir) }

type seekFailFile struct {
	diskfault.File
	fail *bool
}

func (f seekFailFile) Seek(offset int64, whence int) (int64, error) {
	if *f.fail {
		return 0, errors.New("injected seek failure")
	}
	return f.File.Seek(offset, whence)
}

// TestTruncateSeekFailurePoisons: Truncate empties the file first; if
// the follow-up Seek fails, the handle's write offset no longer matches
// the empty file, so the log must poison rather than let a later append
// land at the stale offset — and the size accounting must already be
// reset so no later repair can zero-extend from a stale size.
func TestTruncateSeekFailurePoisons(t *testing.T) {
	fail := false
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{FS: seekFailFS{base: diskfault.OS, fail: &fail}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	for _, rec := range []string{"one", "two"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatalf("append %q: %v", rec, err)
		}
	}
	fail = true
	if err := l.Truncate(); err == nil {
		t.Fatal("Truncate with a failing seek reported success")
	}
	if l.Poisoned() == nil {
		t.Fatal("log not poisoned after the post-truncate seek failed")
	}
	if err := l.Append([]byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append on poisoned log: %v, want ErrPoisoned", err)
	}
	// The file itself was emptied before the seek failed: a reopen
	// replays nothing, and the fresh handle is usable.
	fail = false
	l.Close()
	l2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rep.Records) != 0 {
		t.Fatalf("reopen replayed %q, want an empty log", rep.Records)
	}
	if err := l2.Append([]byte("fresh")); err != nil {
		t.Fatalf("append after reopen: %v", err)
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
