package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
	"conprobe/internal/wal"
)

// durableCfg returns a strong-mode config persisting into dir.
func durableCfg(dir string, snapEvery int) Config {
	return Config{
		Mode:    Strong,
		Sites:   []simnet.Site{simnet.DCWest, simnet.DCAsia},
		Durable: &Durable{Dir: dir, SnapshotEvery: snapEvery},
	}
}

func openDurableCluster(t *testing.T, cfg Config) (*vtime.Sim, *Cluster) {
	t.Helper()
	s := vtime.NewSim(epoch0)
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	c, err := NewCluster(s, net, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// writeN performs n writes with sequential IDs starting at base.
func writeN(t *testing.T, s *vtime.Sim, c *Cluster, base, n int) {
	t.Helper()
	s.Go(func() {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("m%d", base+i)
			if _, err := c.Write(simnet.DCWest, id, "a1", "body "+id); err != nil {
				t.Errorf("write %s: %v", id, err)
			}
		}
	})
	s.Wait()
}

func readIDs(t *testing.T, s *vtime.Sim, c *Cluster, dc simnet.Site) []string {
	t.Helper()
	var ids []string
	s.Go(func() {
		entries, err := c.Read(dc)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		ids = idsOf(entries)
	})
	s.Wait()
	return ids
}

func TestDurableReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 0)
	s, c := openDurableCluster(t, cfg)
	writeN(t, s, c, 0, 10)
	want := readIDs(t, s, c, simnet.DCWest)
	if len(want) != 10 {
		t.Fatalf("pre-crash read has %d entries", len(want))
	}
	// No Close: simulate a crash by abandoning the cluster.

	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	if note := c2.RecoveryNote(); note != "" {
		t.Errorf("clean recovery produced note %q", note)
	}
	for _, dc := range cfg.Sites {
		got := readIDs(t, s2, c2, dc)
		if !eq(got, want) {
			t.Fatalf("recovered read at %s = %v, want %v", dc, got, want)
		}
	}
	// ArrivalSeq must continue past recovered entries, not collide.
	writeN(t, s2, c2, 10, 1)
	r := c2.replicas[simnet.DCWest]
	r.mu.Lock()
	log := slices.Clone(r.log)
	r.mu.Unlock()
	seqs := map[uint64]bool{}
	for _, rec := range log {
		if seqs[rec.e.ArrivalSeq] {
			t.Fatalf("duplicate ArrivalSeq %d after recovery", rec.e.ArrivalSeq)
		}
		seqs[rec.e.ArrivalSeq] = true
	}
	if len(log) != 11 {
		t.Fatalf("post-recovery log has %d entries, want 11", len(log))
	}
}

func TestDurableResetSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 0)
	s, c := openDurableCluster(t, cfg)
	writeN(t, s, c, 0, 5)
	c.Reset()
	writeN(t, s, c, 100, 3)
	want := readIDs(t, s, c, simnet.DCWest)
	if len(want) != 3 {
		t.Fatalf("post-reset read has %d entries, want 3", len(want))
	}

	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	got := readIDs(t, s2, c2, simnet.DCWest)
	if !eq(got, want) {
		t.Fatalf("recovered read = %v, want %v (pre-reset entries resurrected?)", got, want)
	}
}

func TestDurableSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 4) // snapshot every 4 writes
	s, c := openDurableCluster(t, cfg)
	writeN(t, s, c, 0, 9)
	// Two compactions (at 4 and 8 records) and one write since: the log
	// is the head record, eight live entries and the ninth write.
	rep, err := wal.ReadFS(nil, filepath.Join(dir, walName))
	if err != nil || len(rep.Records) != 10 {
		t.Fatalf("log holds %d records (%v), want 10", len(rep.Records), err)
	}
	want := readIDs(t, s, c, simnet.DCWest)

	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	got := readIDs(t, s2, c2, simnet.DCWest)
	if !eq(got, want) {
		t.Fatalf("recovered after compaction = %v, want %v", got, want)
	}
}

func TestDurableTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 0)
	s, c := openDurableCluster(t, cfg)
	writeN(t, s, c, 0, 6)

	// Tear the tail of the WAL: chop the final byte.
	p := filepath.Join(dir, walName)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("WAL had no content to tear")
	}
	if err := os.WriteFile(p, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	note := c2.RecoveryNote()
	if note == "" || !strings.Contains(note, "torn") {
		t.Errorf("recovery note = %q, want torn-tail mention", note)
	}
	// Exactly the torn record was lost.
	if got := readIDs(t, s2, c2, simnet.DCWest); len(got) != 5 {
		t.Fatalf("recovered %d entries, want 5 (one torn)", len(got))
	}
}

func TestDurableMidFileCorruptionRefusesStart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 0)
	s, c := openDurableCluster(t, cfg)
	writeN(t, s, c, 0, 5)

	p := filepath.Join(dir, "wal-0.log")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF // damage inside the first record
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	_, err = NewCluster(vtime.NewSim(epoch0), net, cfg, 42)
	var ce *wal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *wal.CorruptError", err)
	}
	if ce.Offset != 0 {
		t.Errorf("corruption offset = %d, want 0 (first frame)", ce.Offset)
	}
}

func TestDurableRequiresDir(t *testing.T) {
	net := simnet.DefaultTopology(42)
	cfg := Config{Mode: Strong, Sites: []simnet.Site{simnet.DCWest}, Durable: &Durable{}}
	if _, err := NewCluster(vtime.NewSim(epoch0), net, cfg, 1); err == nil {
		t.Fatal("NewCluster accepted Durable without Dir")
	}
}

func TestDurableEventualModeAckedWritesSurvive(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Mode:    Eventual,
		Sites:   []simnet.Site{simnet.DCWest, simnet.DCAsia},
		Durable: &Durable{Dir: dir},
	}
	s, c := openDurableCluster(t, cfg)
	// Write, then crash with propagation to DCAsia still in flight: the
	// write was acked, so it must survive everywhere after recovery.
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "m1", "a1", "x"); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	s.Wait()

	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	for _, dc := range cfg.Sites {
		got := readIDs(t, s2, c2, dc)
		if !eq(got, []string{"m1"}) {
			t.Fatalf("recovered read at %s = %v, want [m1]", dc, got)
		}
	}
}

// TestDurableAppendFailureDoesNotResurrectRejectedWrite forces a WAL
// append failure and requires the NACKed write to be scrubbed
// everywhere: out of the live set, out of the rewritten snapshot, and
// absent after recovery — while the log is poisoned for later writes
// (the disk is suspect, so acking against it would be a lie).
func TestDurableAppendFailureDoesNotResurrectRejectedWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 0)
	s, c := openDurableCluster(t, cfg)
	writeN(t, s, c, 0, 3)
	want := readIDs(t, s, c, simnet.DCWest)
	if len(want) != 3 {
		t.Fatalf("pre-failure read has %d entries", len(want))
	}

	// Kill the WAL, so the next append fails.
	c.durable.log.Close()
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "bad", "a1", "x"); err == nil {
			t.Errorf("write on a dead WAL was acked")
		}
	})
	s.Wait()
	c.durable.mu.Lock()
	for _, e := range c.durable.live {
		if e.ID == "bad" {
			t.Errorf("rejected write still in live set")
		}
	}
	poisoned := c.durable.err != nil
	c.durable.mu.Unlock()
	if !poisoned {
		t.Errorf("log not poisoned after failed scrub snapshot (a dead WAL cannot truncate)")
	}
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "after", "a1", "x"); err == nil ||
			!strings.Contains(err.Error(), "poisoned") {
			t.Errorf("write after poison = %v, want poisoned error", err)
		}
	})
	s.Wait()
	// No Close: the process "crashes" with the failure state on disk.

	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	got := readIDs(t, s2, c2, simnet.DCWest)
	if !eq(got, want) {
		t.Fatalf("recovered read = %v, want %v (rejected write resurrected?)", got, want)
	}
}

// dirNames lists what a durable directory holds.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestDurableLogBoundedUnderResets is the probe's own traffic shape: a
// reset, a handful of writes, again. The compaction threshold is never
// reached within one generation, so the count that triggers it must run
// across resets — when a reset zeroed it, the log kept every discarded
// generation and grew by 600 bytes a round without bound. The directory
// holds the one log throughout.
func TestDurableLogBoundedUnderResets(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 8)
	s, c := openDurableCluster(t, cfg)
	defer c.Close()
	// Eight records of at most ~170 bytes between compactions, and the
	// compacted log holds at most one generation's five entries.
	const bound = 4 << 10
	for round := 0; round < 200; round++ {
		writeN(t, s, c, round*5, 5)
		c.Reset()
		st, err := os.Stat(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > bound {
			t.Fatalf("after %d rounds of 5 writes + reset the log is %d bytes, want at most %d", round+1, st.Size(), bound)
		}
	}
	if got := dirNames(t, dir); !eq(got, []string{walName}) {
		t.Fatalf("durable directory holds %v, want only %s", got, walName)
	}
	writeN(t, s, c, 1000, 3)
	want := readIDs(t, s, c, simnet.DCWest)
	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	if got := readIDs(t, s2, c2, simnet.DCWest); !eq(got, want) || len(got) != 3 {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestDurableRefusesLegacySnapshot: a directory written by a build that
// kept state.snap beside its log holds compacted writes this build would
// never see. Opening it must fail naming the file, and must not touch a
// byte of what is there.
func TestDurableRefusesLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{
		legacySnapName: []byte("a snapshot this build cannot read"),
		walName:        []byte("not even a log"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	_, err := NewCluster(vtime.NewSim(epoch0), net, durableCfg(dir, 0), 42)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, legacySnapName)) {
		t.Fatalf("NewCluster over a legacy directory: %v, want an error naming %s", err, legacySnapName)
	}
	if got := dirNames(t, dir); len(got) != len(files) {
		t.Fatalf("refused open left %v", got)
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != string(want) {
			t.Fatalf("%s after the refused open: %q, %v", name, got, err)
		}
	}
}

// TestDurableConcurrentWritesSurviveCompaction races real writers
// against SnapshotNow: a write's log record can land in the file a
// compaction is replacing or in the new one, and in either case an acked
// write must be recovered exactly once.
func TestDurableConcurrentWritesSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, 0)
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	c, err := NewCluster(vtime.Real{}, net, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := c.Write(simnet.DCWest, fmt.Sprintf("w%d-%d", w, i), "a1", "x"); err != nil {
					t.Errorf("write: %v", err)
				}
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
			if err := c.SnapshotNow(); err != nil {
				t.Errorf("SnapshotNow: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-compacted
	// No Close: the process dies with whatever the race left on disk.

	s2, c2 := openDurableCluster(t, cfg)
	defer c2.Close()
	got := readIDs(t, s2, c2, simnet.DCWest)
	if len(got) != writers*perWriter {
		t.Fatalf("recovered %d entries, want %d acked writes exactly once", len(got), writers*perWriter)
	}
	seen := make(map[string]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("write %s recovered twice", id)
		}
		seen[id] = true
	}
}
