package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// openAppend opens path, appends every payload, and closes the log.
func openAppend(t *testing.T, path string, payloads ...string) {
	t.Helper()
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, p := range payloads {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	want := []string{"one", "", "three has spaces", strings.Repeat("x", 5000)}
	openAppend(t, path, want...)

	l, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	if rep.Note != "" {
		t.Errorf("unexpected note on clean log: %q", rep.Note)
	}
	if len(rep.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), len(want))
	}
	for i, w := range want {
		if string(rep.Records[i]) != w {
			t.Errorf("record %d = %q, want %q", i, rep.Records[i], w)
		}
	}
	// Appends after replay must extend, not clobber.
	if err := l.Append([]byte("five")); err != nil {
		t.Fatalf("post-replay Append: %v", err)
	}
	l.Close()
	_, rep, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if len(rep.Records) != len(want)+1 || string(rep.Records[len(want)]) != "five" {
		t.Fatalf("after post-replay append got %d records", len(rep.Records))
	}
}

// TestKillAtEveryOffset is the kill-at-random-offset sweep: the log is
// truncated at every possible byte length, simulating a crash after
// that many bytes reached disk. Every prefix must either replay some
// prefix of the records with at most a torn tail — never an error, and
// never a wrong or reordered record.
func TestKillAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.log")
	want := []string{"alpha", "beta-beta", "g", strings.Repeat("d", 300)}
	openAppend(t, path, want...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut-%d.log", cut))
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := Open(p, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		for i, r := range rep.Records {
			if i >= len(want) || string(r) != want[i] {
				t.Fatalf("cut=%d: record %d = %q, want prefix of %v", cut, i, r, want)
			}
		}
		partial := cut < len(full)
		// A cut exactly at a frame boundary (including the empty file)
		// loses whole records silently (they never hit disk) — that is
		// not a torn tail.
		complete := cut == 0
		off := 0
		for _, w := range want {
			off += FrameHeader + len(w)
			if off == cut {
				complete = true
			}
		}
		if partial && !complete && rep.Note == "" {
			t.Errorf("cut=%d: mid-frame cut produced no torn-tail note", cut)
		}
		if (!partial || complete) && rep.Note != "" {
			t.Errorf("cut=%d: clean prefix produced note %q", cut, rep.Note)
		}
		// The torn tail must be truncated away: appending then replaying
		// must yield the intact prefix plus the new record.
		if err := l.Append([]byte("tail")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		n := len(rep.Records)
		l.Close()
		_, rep2, err := Open(p, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen after append: %v", cut, err)
		}
		if len(rep2.Records) != n+1 || string(rep2.Records[n]) != "tail" {
			t.Fatalf("cut=%d: after recovery+append replayed %d records", cut, len(rep2.Records))
		}
	}
}

// TestMidFileCorruption flips a byte in every record but the last and
// checks the error carries the offset of the damaged frame.
func TestMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	want := []string{"first", "second", "third"}
	openAppend(t, path, want...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	offsets := []int64{0, int64(FrameHeader + len("first"))}
	for i, frameOff := range offsets {
		p := filepath.Join(dir, fmt.Sprintf("corrupt-%d.log", i))
		damaged := append([]byte(nil), full...)
		damaged[frameOff+FrameHeader] ^= 0xFF // flip a payload byte
		if err := os.WriteFile(p, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(p, Options{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("record %d: got %v, want *CorruptError", i, err)
		}
		if ce.Offset != frameOff {
			t.Errorf("record %d: offset %d, want %d", i, ce.Offset, frameOff)
		}
		if ce.Path != p {
			t.Errorf("record %d: path %q, want %q", i, ce.Path, p)
		}
	}
}

// TestCorruptLastFrameIsTorn checks damage confined to the final frame
// counts as a torn tail, not corruption.
func TestCorruptLastFrameIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	openAppend(t, path, "keep", "lose")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-1] ^= 0xFF
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rep.Records) != 1 || string(rep.Records[0]) != "keep" {
		t.Fatalf("records = %q, want [keep]", rep.Records)
	}
	if rep.Note == "" {
		t.Error("expected a torn-tail note")
	}
}

// TestAbsurdLengthIsCorrupt checks a damaged length field is reported
// as corruption rather than read as a giant torn tail.
func TestAbsurdLengthIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	frame := make([]byte, FrameHeader)
	binary.LittleEndian.PutUint32(frame, uint32(MaxRecordBytes+1))
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CorruptError", err)
	}
}

// TestConcurrentAppends hammers one log from many goroutines; every
// record must survive a reopen exactly once. Run under -race this also
// exercises the group-commit gate.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	seen := make(map[string]int)
	for _, r := range rep.Records {
		seen[string(r)]++
	}
	if len(rep.Records) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("w%d-%d", w, i)
			if seen[key] != 1 {
				t.Fatalf("record %q seen %d times", key, seen[key])
			}
		}
	}
}

// replayed opens path and returns its records as strings.
func replayed(t *testing.T, path string) []string {
	t.Helper()
	rep, err := ReadFS(nil, path)
	if err != nil || rep.Note != "" {
		t.Fatalf("replaying %s: %v, note %q", path, err, rep.Note)
	}
	got := make([]string, len(rep.Records))
	for i, r := range rep.Records {
		got[i] = string(r)
	}
	return got
}

// TestRewrite: the rewritten log holds exactly the payloads given, takes
// appends after them, and leaves nothing but itself in the directory.
func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite([][]byte{[]byte("snapshot of a and b"), {}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	want := []string{"snapshot of a and b", "", "c"}
	wantSize := int64(3*FrameHeader + len(want[0]) + len(want[2]))
	if st, err := os.Stat(path); err != nil || st.Size() != wantSize {
		t.Fatalf("stat: %v, %v; want %d bytes", st, err, wantSize)
	}
	if err := l.Rewrite(nil); err != nil {
		t.Fatalf("rewriting to an empty log: %v", err)
	}
	if got := replayed(t, path); len(got) != 0 {
		t.Fatalf("after Rewrite(nil) the log holds %q", got)
	}
	if err := l.Rewrite([][]byte{[]byte(want[0]), {}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := replayed(t, path); !slices.Equal(got, want) {
		t.Fatalf("records = %q, want %q", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the log", len(entries))
	}
	if err := l.Rewrite(nil); err == nil {
		t.Fatal("Rewrite on a closed log succeeded")
	}
}

// TestRewriteRacingAppends runs appenders against a compactor that
// keeps a live set — a record joins the live set before it is
// appended, and every Rewrite writes the live set — and requires every
// acked record to be in the log afterwards, whichever side of a rewrite
// its append landed on. A record on both sides appears twice; none
// appears never.
func TestRewriteRacingAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.log")
	l, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		live  [][]byte
		acked []string
		wg    sync.WaitGroup
	)
	const writers, perWriter = 4, 40
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := []byte(fmt.Sprintf("w%d-%d", w, i))
				mu.Lock()
				live = append(live, rec)
				mu.Unlock()
				if err := l.Append(rec); err != nil {
					t.Errorf("append %s: %v", rec, err)
					return
				}
				mu.Lock()
				acked = append(acked, string(rec))
				mu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			err := l.Rewrite(live)
			mu.Unlock()
			if err != nil {
				t.Errorf("rewrite: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-compacted
	l.Close()
	have := make(map[string]bool)
	for _, r := range replayed(t, path) {
		have[r] = true
	}
	if len(acked) != writers*perWriter {
		t.Fatalf("%d appends acked, want %d", len(acked), writers*perWriter)
	}
	for _, id := range acked {
		if !have[id] {
			t.Fatalf("acked record %s is not in the log", id)
		}
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")

	if _, ok, err := ReadSnapshot(path); err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v, want false,nil", ok, err)
	}

	var synced []string
	restore := ObserveDirSync(func(d string) { synced = append(synced, d) })
	defer restore()

	if err := WriteSnapshot(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("dir syncs = %v, want [%s]", synced, dir)
	}
	got, ok, err := ReadSnapshot(path)
	if err != nil || !ok || string(got) != "v1" {
		t.Fatalf("ReadSnapshot = %q,%v,%v", got, ok, err)
	}

	// Replacement leaves no temp droppings behind.
	if err := WriteSnapshot(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _, _ = ReadSnapshot(path)
	if string(got) != "v2" {
		t.Fatalf("after replace = %q, want v2", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the snapshot", len(entries))
	}
}

// TestSnapshotDamageIsCorrupt: unlike a log, a damaged snapshot has no
// salvageable prefix and must be reported, never silently dropped.
func TestSnapshotDamageIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := WriteSnapshot(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, FrameHeader / 2} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadSnapshot(path)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("cut=%d: got %v, want *CorruptError", cut, err)
		}
	}
}
