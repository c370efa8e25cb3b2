package diskfault

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"conprobe/internal/obs"
)

func openRW(t *testing.T, fs FS, path string) File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	return f
}

func TestOSPassthrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f := openRW(t, OS, path)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("readback: %q, %v", got, err)
	}
	if err := OS.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
}

func TestTornWritePersistsStrictPrefix(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: KindTorn, Seed: 7}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	path := filepath.Join(t.TempDir(), "f")
	f := openRW(t, in.FS(), path)
	defer f.Close()
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if err == nil {
		t.Fatalf("torn write returned no error (wrote %d)", n)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes; want a strict prefix", n, len(payload))
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, payload[:n]) {
		t.Fatalf("file holds %q, want prefix %q", got, payload[:n])
	}
	// The fault is one-shot: the next write goes through clean.
	if _, err := f.Write([]byte("xy")); err != nil {
		t.Fatalf("write after one-shot torn fault: %v", err)
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", in.Injected())
	}
}

// TestTornWriteHoldsFireOnOneByteWrites: a torn write persists a strict
// non-empty prefix, which a write shorter than 2 bytes does not have.
// An armed torn fault holds its fire on such writes — they pass through
// clean without consuming the fault — and tears the next write that can
// actually tear, so sweeps over small records test what KindTorn
// documents instead of degenerating to a 0-byte "tear".
func TestTornWriteHoldsFireOnOneByteWrites(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: KindTorn, Seed: 3}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	path := filepath.Join(t.TempDir(), "f")
	f := openRW(t, in.FS(), path)
	defer f.Close()
	if n, err := f.Write([]byte("a")); err != nil || n != 1 {
		t.Fatalf("1-byte write under an armed torn fault = (%d, %v), want a clean pass-through", n, err)
	}
	if in.Injected() != 0 {
		t.Fatalf("Injected() = %d after an untearable write, want 0 (fault still armed)", in.Injected())
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if err == nil {
		t.Fatalf("torn write returned no error (wrote %d)", n)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes; want a strict non-empty prefix", n, len(payload))
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", in.Injected())
	}
	got, _ := os.ReadFile(path)
	want := append([]byte("a"), payload[:n]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("file holds %q, want %q", got, want)
	}
}

func TestFsyncGateDropsUnsyncedBytes(t *testing.T) {
	in := New(nil)
	path := filepath.Join(t.TempDir(), "f")

	// Establish a synced prefix first.
	f := openRW(t, in.FS(), path)
	if _, err := f.Write([]byte("durable.")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("clean sync: %v", err)
	}
	// Arm the gate, write more, and watch the failed fsync eat it.
	if err := in.Arm(Fault{Kind: KindFsyncGate, Path: "f"}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if _, err := f.Write([]byte("doomed")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err == nil {
		t.Fatal("gated fsync reported success")
	}
	got, _ := os.ReadFile(path)
	if string(got) != "durable." {
		t.Fatalf("after gated fsync file holds %q, want %q (unsynced bytes must vanish)", got, "durable.")
	}
	// The canonical fsyncgate trap: a later Sync succeeds but the bytes
	// are still gone. Callers must poison on the FIRST failure.
	if err := f.Sync(); err != nil {
		t.Fatalf("post-gate sync: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "durable." {
		t.Fatalf("post-gate file holds %q, want %q", got, "durable.")
	}
	f.Close()
}

func TestBitFlipOnRead(t *testing.T) {
	in := New(nil)
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatalf("seed file: %v", err)
	}
	if err := in.Arm(Fault{Kind: KindBitFlip, Seed: 21}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	f := openRW(t, in.FS(), path)
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if bytes.Equal(got, []byte("payload")) {
		t.Fatal("bit flip did not fire")
	}
	diff := 0
	for i := range got {
		diff += popcount(got[i] ^ "payload"[i])
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1 (%q)", diff, got)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestENOSPCPersistsNothingAndSticks(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: KindENOSPC, Sticky: true}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	path := filepath.Join(t.TempDir(), "f")
	f := openRW(t, in.FS(), path)
	defer f.Close()
	for i := 0; i < 3; i++ {
		n, err := f.Write([]byte("data"))
		if n != 0 || !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d: (%d, %v), want (0, ENOSPC)", i, n, err)
		}
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Fatalf("ENOSPC persisted %d bytes", st.Size())
	}
}

func TestDirSyncOmitIsSilent(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: KindDirSyncOmit}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := in.FS().SyncDir(t.TempDir()); err != nil {
		t.Fatalf("omitted dir sync must report success, got %v", err)
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", in.Injected())
	}
}

func TestCrashBeforeRenameLeavesTmp(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: KindCrashRename}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	dir := t.TempDir()
	tmp, dst := filepath.Join(dir, "f.tmp"), filepath.Join(dir, "f")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatalf("seed tmp: %v", err)
	}
	if err := in.FS().Rename(tmp, dst); err == nil {
		t.Fatal("rename succeeded through an armed crash-rename fault")
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("tmp file vanished: %v", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("destination appeared despite failed rename: %v", err)
	}
}

func TestAfterSkipsMatchingOps(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: KindENOSPC, After: 2}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	f := openRW(t, in.FS(), filepath.Join(t.TempDir(), "f"))
	defer f.Close()
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d should pass: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("third write: %v, want ENOSPC", err)
	}
}

func TestPathFilterAndDedup(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: KindENOSPC, Path: "term.log"}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	// Re-arming the identical fault is a no-op (chaos replays per lane).
	if err := in.Arm(Fault{Kind: KindENOSPC, Path: "term.log"}); err != nil {
		t.Fatalf("re-Arm: %v", err)
	}
	dir := t.TempDir()
	other := openRW(t, in.FS(), filepath.Join(dir, "oplog.log"))
	defer other.Close()
	if _, err := other.Write([]byte("fine")); err != nil {
		t.Fatalf("non-matching path hit the fault: %v", err)
	}
	term := openRW(t, in.FS(), filepath.Join(dir, "term.log"))
	defer term.Close()
	if _, err := term.Write([]byte("boom")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("matching path missed the fault: %v", err)
	}
	// Dedup means exactly one armed fault, so a second matching write is
	// clean.
	if _, err := term.Write([]byte("fine")); err != nil {
		t.Fatalf("one-shot fault fired twice: %v", err)
	}
}

func TestArmRejectsUnknownKind(t *testing.T) {
	in := New(nil)
	if err := in.Arm(Fault{Kind: "melt"}); err == nil {
		t.Fatal("Arm accepted an unknown kind")
	}
}

func TestInjectedCounterObservable(t *testing.T) {
	reg := obs.NewRegistry()
	in := New(reg.Scope("test"))
	if err := in.Arm(Fault{Kind: KindDirSyncOmit}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	if err := in.FS().SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", in.Injected())
	}
}
