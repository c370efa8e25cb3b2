package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conprobe/internal/diskfault"
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
	var entries []Entry
	s2.Go(func() { entries, _ = c2.Read(simnet.DCWest) })
	s2.Wait()
	seqs := map[uint64]bool{}
	for _, e := range entries {
		if seqs[e.ArrivalSeq] {
			t.Fatalf("duplicate ArrivalSeq %d after recovery", e.ArrivalSeq)
		}
		seqs[e.ArrivalSeq] = true
	}
	if len(entries) != 11 {
		t.Fatalf("post-recovery read has %d entries, want 11", len(entries))
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
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
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

// noRemoveFS is the real filesystem with every Remove refused.
type noRemoveFS struct{ diskfault.FS }

func (noRemoveFS) Remove(name string) error { return errors.New("remove refused: " + name) }

// TestDurableRecoversStripedDirectory opens a directory as a build with
// lock-striped replicas left it: four stripe WALs, a journaled reset, an
// entry from the epoch it ended, and an entry that sits in both the
// snapshot and a log. Every live-epoch entry must come back exactly
// once at every replica, and only wal-0.log may remain. When the
// removal fails — which leaves the disk as a kill between the snapshot
// and the removal would — recovery still returns one copy of each entry
// and the next open finishes the job.
func TestDurableRecoversStripedDirectory(t *testing.T) {
	entry := func(id string, seq, epoch uint64) walEntry {
		return walEntry{ID: id, Author: "a1", Origin: string(simnet.DCWest),
			CreatedAt: epoch0.Add(time.Duration(seq) * time.Millisecond), ArrivalSeq: seq, Epoch: epoch}
	}
	write := func(e walEntry) walRecord { return walRecord{Kind: "w", Entry: &e} }
	stripes := [][]walRecord{
		{write(entry("old0", 1, 1)), {Kind: "r", Epoch: 2}, write(entry("m1", 3, 2))},
		{write(entry("m2", 4, 2))},
		{write(entry("old1", 2, 1)), write(entry("m3", 5, 2))},
		{write(entry("m4", 6, 2))},
	}
	want := []string{"m1", "m2", "m3", "m4"}

	for _, removeFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("removeFails=%v", removeFails), func(t *testing.T) {
			dir := t.TempDir()
			snap, err := json.Marshal(snapshotState{Epoch: 2, MaxSeq: 3, Entries: []walEntry{entry("m1", 3, 2)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteSnapshot(filepath.Join(dir, snapName), snap); err != nil {
				t.Fatal(err)
			}
			for i, recs := range stripes {
				l, _, err := wal.Open(filepath.Join(dir, fmt.Sprintf("wal-%d.log", i)), wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					raw, err := json.Marshal(rec)
					if err != nil {
						t.Fatal(err)
					}
					if err := l.Append(raw); err != nil {
						t.Fatal(err)
					}
				}
				l.Close()
			}
			logsOnDisk := func() []string {
				paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range paths {
					paths[i] = filepath.Base(p)
				}
				return paths
			}
			// open recovers the directory, checks every replica holds each
			// live-epoch entry once, and crashes (no Close).
			open := func(fsys diskfault.FS) *Cluster {
				cfg := durableCfg(dir, 0)
				cfg.Durable.FS = fsys
				s, c := openDurableCluster(t, cfg)
				for _, dc := range cfg.Sites {
					if got := readIDs(t, s, c, dc); !eq(got, want) {
						t.Fatalf("recovered read at %s = %v, want %v", dc, got, want)
					}
				}
				return c
			}

			if removeFails {
				c := open(noRemoveFS{diskfault.OS})
				if note := c.RecoveryNote(); !strings.Contains(note, "not removed") {
					t.Errorf("recovery note = %q, want the failed removals", note)
				}
				if got := logsOnDisk(); len(got) != len(stripes) {
					t.Fatalf("logs on disk = %v, want all %d stripe logs still there", got, len(stripes))
				}
			}
			for i := 0; i < 2; i++ {
				c := open(nil)
				if note := c.RecoveryNote(); note != "" {
					t.Errorf("open %d: recovery note = %q, want clean", i, note)
				}
				if got := logsOnDisk(); !eq(got, []string{walName}) {
					t.Fatalf("open %d: logs on disk = %v, want only %s", i, got, walName)
				}
			}
		})
	}
}
