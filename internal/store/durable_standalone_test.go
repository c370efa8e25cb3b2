package store_test

// The store keeps no journal of its own: its durable standalone form is
// a one-node cluster leader serving it, as `consvc -role leader -node-id
// n1 -data-dir DIR` runs it. These tests hold that form to the contract
// a durable store owes across kill -9: every acked write comes back
// exactly once, a reset stays a reset, compaction loses nothing, and a
// torn tail costs only the torn record.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"conprobe/internal/cluster"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/store"
	"conprobe/internal/vtime"
	"conprobe/internal/wal"
)

// openStandalone boots a one-site strong store behind a peerless leader
// persisting into dir, compacting its oplog every snapEvery ops (0: the
// node's default).
func openStandalone(t *testing.T, dir string, snapEvery int) *cluster.Node {
	t.Helper()
	svc, err := service.NewSimulated(vtime.Real{}, simnet.DefaultTopology(42, simnet.WithJitter(0)), service.Profile{
		Name:    "standalone",
		Store:   store.Config{Mode: store.Strong, Sites: []simnet.Site{simnet.DCWest}},
		Routing: map[simnet.Site]simnet.Site{simnet.DCWest: simnet.DCWest},
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cluster.NewNode(svc, cluster.Config{
		NodeID: "n1", Role: cluster.RoleLeader, DataDir: dir, SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writeAcked performs count acked writes with sequential IDs from base.
func writeAcked(t *testing.T, n *cluster.Node, base, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		p := service.Post{ID: fmt.Sprintf("m%d", base+i), Author: "a1", Body: "body"}
		if err := n.Write(simnet.DCWest, p); err != nil {
			t.Fatalf("write %s: %v", p.ID, err)
		}
	}
}

// readAll returns the IDs the store shows, in order.
func readAll(t *testing.T, n *cluster.Node) []string {
	t.Helper()
	posts, err := n.Read(simnet.DCWest, "r")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(posts))
	for i, p := range posts {
		ids[i] = p.ID
	}
	return ids
}

func TestDurableReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	n := openStandalone(t, dir, 0)
	writeAcked(t, n, 0, 10)
	want := readAll(t, n)
	if len(want) != 10 {
		t.Fatalf("pre-crash read has %d entries", len(want))
	}
	n.Kill()

	n2 := openStandalone(t, dir, 0)
	defer n2.Close()
	if notes := n2.StorageNotes(); len(notes) != 0 {
		t.Errorf("clean recovery produced notes %q", notes)
	}
	if got := readAll(t, n2); !slices.Equal(got, want) {
		t.Fatalf("recovered read = %v, want %v", got, want)
	}
	// Indexes continue past the recovered ops rather than collide.
	writeAcked(t, n2, 10, 1)
	if got := n2.LastIndex(); got != 11 {
		t.Fatalf("post-recovery index = %d, want 11", got)
	}
	if got := readAll(t, n2); !slices.Equal(got, append(want, "m10")) {
		t.Fatalf("post-recovery read = %v, want %v then m10", got, want)
	}
}

func TestDurableResetSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	n := openStandalone(t, dir, 0)
	writeAcked(t, n, 0, 5)
	if err := n.Reset(); err != nil {
		t.Fatal(err)
	}
	writeAcked(t, n, 100, 3)
	want := readAll(t, n)
	if len(want) != 3 {
		t.Fatalf("post-reset read has %d entries, want 3", len(want))
	}
	n.Kill()

	n2 := openStandalone(t, dir, 0)
	defer n2.Close()
	if got := readAll(t, n2); !slices.Equal(got, want) {
		t.Fatalf("recovered read = %v, want %v (pre-reset entries resurrected?)", got, want)
	}
}

func TestDurableSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	n := openStandalone(t, dir, 4)
	writeAcked(t, n, 0, 9)
	// Writes alone leave nothing dead to drop: every fourth op journals
	// a small commit record, and the log is not rewritten.
	path := filepath.Join(dir, "oplog.log")
	rep, err := wal.ReadFS(nil, path)
	if err != nil || len(rep.Records) != 1+9+9/4 {
		t.Fatalf("oplog holds %d records (%v), want the snapshot, 9 ops and 2 commit records", len(rep.Records), err)
	}
	want := readAll(t, n)
	n.Kill()

	n2 := openStandalone(t, dir, 4)
	defer n2.Close()
	// Compaction on open folded the applied ops into the log's head
	// snapshot record: what is left is far shorter than one record per
	// write.
	if rep, err = wal.ReadFS(nil, path); err != nil || len(rep.Records) == 0 || len(rep.Records) > 5 {
		t.Fatalf("oplog holds %d records (%v), want a snapshot and at most 4 ops", len(rep.Records), err)
	}
	if got := readAll(t, n2); !slices.Equal(got, want) || len(got) != 9 {
		t.Fatalf("recovered after compaction = %v, want %v", got, want)
	}
	if got := n2.LastIndex(); got != 9 {
		t.Fatalf("recovered index = %d, want 9", got)
	}
}

func TestDurableTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	n := openStandalone(t, dir, 0)
	writeAcked(t, n, 0, 6)
	n.Kill()

	// Tear the tail of the oplog: chop its final byte.
	p := filepath.Join(dir, "oplog.log")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := wal.ReadFS(nil, p); err != nil || !strings.Contains(rep.Note, "torn") {
		t.Fatalf("the cut log reads as note %q, %v: want a torn tail", rep.Note, err)
	}

	n2 := openStandalone(t, dir, 0)
	defer n2.Close()
	// Exactly the torn record was lost.
	if got := readAll(t, n2); !slices.Equal(got, []string{"m0", "m1", "m2", "m3", "m4"}) {
		t.Fatalf("recovered %v, want the five whole writes", got)
	}
}

// TestDurableLogBoundedUnderResets is the probe's own traffic shape: a
// reset, a handful of writes, again. The compaction threshold is never
// reached within one generation, so what triggers it must run across
// resets, or the log keeps every discarded generation and grows without
// bound. The directory holds the node's two logs throughout.
func TestDurableLogBoundedUnderResets(t *testing.T) {
	dir := t.TempDir()
	n := openStandalone(t, dir, 8)
	// Eight op records of at most ~200 bytes between compactions, and
	// the compacted log holds at most one generation's five writes.
	const bound = 4 << 10
	for round := 0; round < 200; round++ {
		writeAcked(t, n, round*5, 5)
		if err := n.Reset(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, "oplog.log"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() > bound {
			t.Fatalf("after %d rounds of 5 writes + reset the oplog is %d bytes, want at most %d", round+1, st.Size(), bound)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"oplog.log", "term.log"}; !slices.Equal(names, want) {
		t.Fatalf("data directory holds %v, want %v", names, want)
	}
	writeAcked(t, n, 1000, 3)
	want := readAll(t, n)
	n.Kill()

	n2 := openStandalone(t, dir, 8)
	defer n2.Close()
	if got := readAll(t, n2); !slices.Equal(got, want) || len(got) != 3 {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestDurableConcurrentWritesSurviveCompaction races writers against a
// compaction after every other op: a write's record can land in the log
// a compaction is replacing or in the new one, and in either case an
// acked write must be recovered exactly once.
func TestDurableConcurrentWritesSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	n := openStandalone(t, dir, 2)
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := service.Post{ID: fmt.Sprintf("w%d-%d", w, i), Author: "a1", Body: "x"}
				if err := n.Write(simnet.DCWest, p); err != nil {
					t.Errorf("write %s: %v", p.ID, err)
				}
			}
		}(w)
	}
	wg.Wait()
	n.Kill() // the process dies with whatever the race left on disk

	n2 := openStandalone(t, dir, 2)
	defer n2.Close()
	got := readAll(t, n2)
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
