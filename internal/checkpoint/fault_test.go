package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/wal"
)

// TestENOSPCDegradesWithoutAborting is the headline journal-fault
// guarantee: a full disk mid-campaign stops journaling, not the
// campaign. Every Append after the failure returns nil, Degraded
// reports the original ENOSPC, and the journal left on disk is still a
// loadable (stale) prefix.
func TestENOSPCDegradesWithoutAborting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.jsonl")
	traces := campaignTraces(t)

	inj := diskfault.New(nil)
	if err := inj.Arm(diskfault.Fault{Kind: diskfault.KindENOSPC, Path: "checkpoint", After: 2, Sticky: true}); err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, testMeta, Config{KeepTraces: true, FS: inj.FS()})
	if err != nil {
		t.Fatal(err)
	}
	base := testMeta.Start
	for i, tr := range traces {
		if err := w.Append(i%2, tr, base.Add(time.Duration(i+1)*time.Minute), nil); err != nil {
			t.Fatalf("append %d aborted the campaign: %v", i, err)
		}
	}
	derr := w.Degraded()
	if derr == nil {
		t.Fatal("journal never degraded despite sticky ENOSPC")
	}
	if !errors.Is(derr, syscall.ENOSPC) {
		t.Fatalf("Degraded() = %v, want ENOSPC", derr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The stale journal must still load: every surviving frame is CRC'd
	// and only a torn final frame is tolerated, so degrading mid-append
	// never leaves the file unreadable.
	st, err := Load(path)
	if err != nil {
		t.Fatalf("degraded journal does not load: %v", err)
	}
	if !st.Meta.Matches(testMeta) {
		t.Fatalf("degraded journal meta = %+v, want %+v", st.Meta, testMeta)
	}
}

// TestFsyncFailureDegradesJournal: a failed journal fsync may have lost
// the dirty pages, so journaling must stop rather than continue on a
// handle whose durability cannot be trusted.
func TestFsyncFailureDegradesJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.jsonl")
	traces := campaignTraces(t)

	inj := diskfault.New(nil)
	if err := inj.Arm(diskfault.Fault{Kind: diskfault.KindFsyncGate, Path: "checkpoint.jsonl", After: 1}); err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, testMeta, Config{FS: inj.FS()})
	if err != nil {
		t.Fatal(err)
	}
	base := testMeta.Start
	for i, tr := range traces {
		if err := w.Append(i%2, tr, base.Add(time.Duration(i+1)*time.Minute), nil); err != nil {
			t.Fatalf("append %d aborted the campaign: %v", i, err)
		}
	}
	if w.Degraded() == nil {
		t.Fatal("journal never degraded despite fsync failure")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("degraded journal does not load: %v", err)
	}
}

// TestStaleRotationTmpNeverAdopted guards the one temp file the journal
// still has, Create's: a half-written temp left by a crashed run is
// removed and rewritten, never renamed into place as the journal; the
// rename is made durable by exactly one directory fsync; and a Create
// that cannot write its temp fails hard and leaves the previous journal
// untouched (the campaign has not started — there is nothing to degrade).
func TestStaleRotationTmpNeverAdopted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.jsonl")

	// Plant a garbage temp as a crashed Create would leave it.
	if err := os.WriteFile(path+".tmp", []byte("garbage from a crashed create"), 0o644); err != nil {
		t.Fatal(err)
	}
	var synced []string
	restore := wal.ObserveDirSync(func(d string) { synced = append(synced, d) })
	defer restore()

	w, err := Create(path, testMeta, Config{})
	if err != nil {
		t.Fatalf("Create with stale temp present: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("Create synced %q, want the journal's directory %q exactly once", synced, dir)
	}

	inj := diskfault.New(nil)
	if err := inj.Arm(diskfault.Fault{Kind: diskfault.KindENOSPC, Path: ".tmp", Sticky: true}); err != nil {
		t.Fatal(err)
	}
	other := testMeta
	other.Seed++
	if w, err := Create(path, other, Config{FS: inj.FS()}); err == nil {
		w.Close()
		t.Fatal("Create succeeded with an unwritable temp")
	}

	st, err := Load(path)
	if err != nil {
		t.Fatalf("journal created over stale temp does not load: %v", err)
	}
	if !st.Meta.Matches(testMeta) {
		t.Fatalf("journal meta = %+v, want %+v", st.Meta, testMeta)
	}
}

// TestLoadFSDetectsBitFlip: a read-side bit flip in the journal is
// caught by the per-frame CRC, positioned at the damaged frame.
func TestLoadFSDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.jsonl")
	journalCampaign(t, path, campaignTraces(t), Config{KeepTraces: true})

	inj := diskfault.New(nil)
	// Seed 900 lands the flip inside a CRC-guarded payload early in the
	// file (not the torn-tail-tolerated final frame).
	if err := inj.Arm(diskfault.Fault{Kind: diskfault.KindBitFlip, Path: "checkpoint.jsonl", Seed: 900}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(inj.FS(), path); err == nil {
		t.Fatal("LoadFS accepted a bit-flipped journal")
	}
}
