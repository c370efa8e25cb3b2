package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// diskChaosSeeds returns the seeds the fault sweep runs. A single seed
// can be pinned with DISKCHAOS_SEED=<n> (the repro path scripts/
// disk_chaos.sh uses); the default is a small fixed set so the sweep is
// cheap enough for every `go test ./...`.
func diskChaosSeeds(t *testing.T) []uint64 {
	if s := os.Getenv("DISKCHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("DISKCHAOS_SEED=%q: %v", s, err)
		}
		return []uint64{v}
	}
	return []uint64{1, 2, 3}
}

// TestDiskFaultSweep drives every fault kind against every cluster
// storage site — the op WAL, the term WAL, and the compaction that
// rewrites the op WAL around its snapshot record — at a seed-chosen
// operation offset, and asserts the recovery invariants that hold
// regardless of where the damage lands:
//
//   - boot never fails on damage it can survive: every corruption
//     outcome is quarantine, torn repair, or clean recovery — except on
//     a peerless leader, which has nobody to re-source a damaged oplog
//     from and refuses to boot on it, naming the file;
//   - no acked write is lost when the disk was healthy at read time
//     (write-side faults are NACKed before any ack escapes);
//   - read-side damage (bit flips) either leaves all acked writes
//     intact or declares itself through a storage note + sidecar;
//   - no granted vote is ever re-granted to a different candidate.
//
// The checkpoint-journal site has its own sweep in internal/checkpoint
// (TestJournalFaultSweep), where the campaign fixtures live.
func TestDiskFaultSweep(t *testing.T) {
	for _, seed := range diskChaosSeeds(t) {
		for _, kind := range diskfault.Kinds() {
			seed, kind := seed, kind
			t.Run(fmt.Sprintf("seed=%d/%s/wal", seed, kind), func(t *testing.T) {
				sweepOpWAL(t, seed, kind)
			})
			t.Run(fmt.Sprintf("seed=%d/%s/term", seed, kind), func(t *testing.T) {
				sweepTermWAL(t, seed, kind)
			})
			t.Run(fmt.Sprintf("seed=%d/%s/snapshot", seed, kind), func(t *testing.T) {
				sweepSnapshot(t, seed, kind)
			})
		}
	}
}

// faultPath picks the Path filter for a fault aimed at file: directory
// syncs see the directory path, not the file, so dir-sync omission
// matches everything.
func faultPath(kind diskfault.Kind, file string) string {
	if kind == diskfault.KindDirSyncOmit {
		return ""
	}
	return file
}

// sweepOpWAL: the fault fires while a standalone leader streams writes
// through its op WAL; write-side faults must NACK, and a restart (for
// bit flips, a restart reading through the rotten disk) must boot and
// keep every acked write or declare the loss by refusing to boot.
func sweepOpWAL(t *testing.T, seed uint64, kind diskfault.Kind) {
	dir := t.TempDir()
	inj := diskfault.New(nil)
	writeFS, restartFS := inj.FS(), diskfault.OS
	if kind == diskfault.KindBitFlip {
		// Reads happen at recovery, not during the write run: arm the
		// flip on the restart's disk instead.
		writeFS, restartFS = diskfault.OS, inj.FS()
	}
	n, err := NewNode(&memSvc{}, Config{NodeID: "n1", Role: RoleLeader, DataDir: dir, FS: writeFS})
	if err != nil {
		t.Fatal(err)
	}
	// Armed after boot so the fault lands on a steady-state operation at
	// a seed-chosen offset, not on file creation.
	if err := inj.Arm(diskfault.Fault{
		Kind: kind, Path: faultPath(kind, "oplog.log"),
		After: int(seed % 3), Seed: seed, Sticky: kind == diskfault.KindENOSPC,
	}); err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := n.Write(simnet.DCWest, service.Post{ID: id, Author: "a1", Body: "x"}); err == nil {
			acked = append(acked, id)
		}
	}
	n.Kill()

	r, err := NewNode(&memSvc{}, Config{NodeID: "n1", Role: RoleLeader, DataDir: dir, FS: restartFS})
	if refusedRottenOplog(t, kind, dir, r, err) {
		return // declared damage: a peerless leader cannot re-source it
	}
	defer r.Kill()
	have := make(map[string]bool)
	for _, id := range ids(t, r) {
		if have[id] {
			t.Fatalf("recovery duplicated write %s", id)
		}
		have[id] = true
	}
	for _, id := range acked {
		if !have[id] {
			t.Fatalf("acked write %s lost across recovery (notes=%v)", id, r.StorageNotes())
		}
	}
}

// refusedRottenOplog reports whether a peerless leader's restart (r,
// err) refused a damaged oplog, which it may only do for read-side
// damage and only naming the file. A restart that did boot must not be
// rebuilding: there is no leader to rebuild from.
func refusedRottenOplog(t *testing.T, kind diskfault.Kind, dir string, r *Node, err error) bool {
	t.Helper()
	if err != nil {
		if kind != diskfault.KindBitFlip || !strings.Contains(err.Error(), filepath.Join(dir, "oplog.log")) {
			t.Fatalf("recovery failed the boot: %v", err)
		}
		return true
	}
	if r.Rebuilding() {
		r.Kill()
		t.Fatalf("a peerless leader booted rebuilding (notes %v), with nobody to rebuild from", r.StorageNotes())
	}
	return false
}

// sweepTermWAL: the fault fires while a voter persists grants; a grant
// only escapes after a durable persist, so recovery must never hand the
// same term to a different candidate — and when read-side damage makes
// past votes unknowable, the node must refuse to grant at all.
func sweepTermWAL(t *testing.T, seed uint64, kind diskfault.Kind) {
	dir := t.TempDir()
	inj := diskfault.New(nil)
	grantFS, restartFS := inj.FS(), diskfault.OS
	if kind == diskfault.KindBitFlip {
		grantFS, restartFS = diskfault.OS, inj.FS()
	}
	voterCfg := func(fsys diskfault.FS) Config {
		return Config{
			NodeID: "voter", SelfURL: "http://voter",
			Peers:           []string{"http://a", "http://b", "http://c"},
			DataDir:         dir,
			PullInterval:    time.Hour,
			ElectionTimeout: time.Hour, HeartbeatInterval: time.Hour,
			NoSync: true, FS: fsys,
		}
	}
	n, err := NewNode(&memSvc{}, voterCfg(grantFS))
	if err != nil {
		t.Fatal(err)
	}
	ageBoot(n)
	if err := inj.Arm(diskfault.Fault{
		Kind: kind, Path: faultPath(kind, "term.log"),
		After: int(seed % 2), Seed: seed, Sticky: kind == diskfault.KindENOSPC,
	}); err != nil {
		t.Fatal(err)
	}
	type grant struct {
		term uint64
		to   string
	}
	var granted []grant
	for i, g := range []grant{{3, "A"}, {5, "B"}, {7, "C"}} {
		if n.HandleVote(voteReq(g.term, g.to)).Granted {
			granted = append(granted, g)
		}
		_ = i
	}
	n.Kill()

	r, err := NewNode(&memSvc{}, voterCfg(restartFS))
	if err != nil {
		t.Fatalf("term recovery failed the boot: %v", err)
	}
	defer r.Kill()
	// Within the boot window nothing is granted, whatever happened.
	for _, g := range granted {
		if r.HandleVote(voteReq(g.term, "USURPER")).Granted {
			t.Fatalf("double vote inside the boot window: term %d granted to USURPER after %s", g.term, g.to)
		}
	}
	_, quarantined := os.Stat(filepath.Join(dir, "term.log.corrupt"))
	if kind == diskfault.KindBitFlip && quarantined == nil {
		// Quarantined: the non-granting window survives ageBoot.
		ageBoot(r)
		for _, g := range granted {
			if r.HandleVote(voteReq(g.term, "USURPER")).Granted {
				t.Fatalf("double vote after ageBoot on a quarantined term log: term %d", g.term)
			}
		}
		return
	}
	if kind == diskfault.KindBitFlip {
		// Torn-tail-shaped flips can silently drop durable grants; only
		// the boot window (already checked) guards those. Nothing more to
		// assert without knowing what survived.
		return
	}
	// Healthy read path: every grant that escaped was durably persisted
	// first, so even after the window no term is re-granted.
	ageBoot(r)
	for _, g := range granted {
		if r.HandleVote(voteReq(g.term, "USURPER")).Granted {
			t.Fatalf("double vote: term %d granted to USURPER after being granted to %s", g.term, g.to)
		}
	}
}

// sweepSnapshot: the fault fires on the temp file a compaction writes
// the oplog's snapshot record to (or, for bit flips, on that record
// while recovery reads it back — the first bytes of the file). A failed
// compaction write must leave the old log in place — so nothing acked is
// lost — and a rotten snapshot record must stop the peerless leader, not
// boot a silently wrong replica.
func sweepSnapshot(t *testing.T, seed uint64, kind diskfault.Kind) {
	dir := t.TempDir()
	inj := diskfault.New(nil)
	writeFS, restartFS := inj.FS(), diskfault.OS
	path := diskfault.Sites["snapshot"]
	if kind == diskfault.KindBitFlip {
		// Nothing reads the temp file back; the record it carried is read
		// from the log it was renamed to.
		writeFS, restartFS, path = diskfault.OS, inj.FS(), "oplog.log"
	}
	n, err := NewNode(&memSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: dir, SnapshotEvery: 4, FS: writeFS,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(diskfault.Fault{
		Kind: kind, Path: faultPath(kind, path),
		After: int(seed % 2), Seed: seed, Sticky: kind == diskfault.KindENOSPC,
	}); err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("w%d", i)
		if err := n.Write(simnet.DCWest, service.Post{ID: id, Author: "a1", Body: "x"}); err == nil {
			acked = append(acked, id)
		}
	}
	n.Kill()
	if kind != diskfault.KindBitFlip && kind != diskfault.KindDirSyncOmit && inj.Injected() == 0 {
		t.Fatalf("no %s fault fired on %q: the drill is void", kind, path)
	}

	r, err := NewNode(&memSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: dir, SnapshotEvery: 4, FS: restartFS,
	})
	if refusedRottenOplog(t, kind, dir, r, err) {
		return // declared damage: a peerless leader cannot re-source it
	}
	defer r.Kill()
	have := make(map[string]bool)
	for _, id := range ids(t, r) {
		have[id] = true
	}
	for _, id := range acked {
		if !have[id] {
			t.Fatalf("acked write %s lost across snapshot-fault recovery (notes=%v)", id, r.StorageNotes())
		}
	}
	leftover, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(leftover) > 0 {
		t.Fatalf("temp files after a completed open: %v (%v)", leftover, err)
	}
}

// TestRottenSnapshotRecordIsDeclared: a graceful close leaves the oplog
// as its one snapshot record, so any damage to it is damage to the final
// frame, which a scan reads as a torn tail. A node's log never tears
// there — the record arrived by an atomic rename — so recovery must call
// it what it is. A node with peers says the state is lost and withholds
// votes until the leader has re-sourced it: booting empty and silent
// would let it vote for candidates that lack what it once acked. A
// peerless leader has nobody to re-source from, so it refuses to boot,
// naming the file and leaving it as it was.
func TestRottenSnapshotRecordIsDeclared(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NodeID: "n1", Role: RoleLeader, DataDir: dir, NoSync: true}
	n, err := NewNode(&memSvc{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Write(simnet.DCWest, service.Post{ID: fmt.Sprintf("w%d", i), Author: "a1", Body: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "oplog.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := NewNode(&memSvc{}, cfg); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("peerless leader over a rotten snapshot record: %v, want a refusal naming %s", err, path)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("the refused boot changed %s (read error %v)", path, err)
	}

	r := bootVoter(t, dir)
	defer r.Kill()
	if !r.Rebuilding() || len(r.StorageNotes()) == 0 {
		t.Fatalf("rebuilding %t, notes %v: the lost state went undeclared", r.Rebuilding(), r.StorageNotes())
	}
	if got := ids(t, r); len(got) != 0 {
		t.Fatalf("recovered %v from a record that failed its checksum", got)
	}
}

// TestPeerlessLeaderRefusesRottenOplog cuts a peerless leader's oplog
// at every byte offset and flips every one of its bytes; the log holds
// two writes, a reset and two more writes. A cut is a crash: the leader
// boots showing exactly what the surviving bytes acked — except inside
// the snapshot record, which arrived whole by rename and so cannot tear.
// A flip is rot, and the leader has nobody to re-source a lost record
// from: it refuses the boot, naming oplog.log and leaving the file as it
// was. Only a flip inside the final frame may read as a torn tail, and
// then it boots showing what the intact prefix acked; a flip anywhere
// before it — a length made to run past the end of the file included —
// must refuse. It never boots rebuilding from a leader that does not
// exist, empty and accepting writes.
func TestPeerlessLeaderRefusesRottenOplog(t *testing.T) {
	cfg := func(dir string) Config {
		return Config{NodeID: "n1", Role: RoleLeader, DataDir: dir, NoSync: true}
	}
	seed := t.TempDir()
	path := filepath.Join(seed, "oplog.log")
	n, err := NewNode(&memSvc{}, cfg(seed))
	if err != nil {
		t.Fatal(err)
	}
	state := func(n *Node) string { return fmt.Sprint(ids(t, n)) }
	steps := []sweepStep{{fileSize(t, path), state(n)}}
	for _, id := range []string{"a", "b", "reset", "c", "d"} {
		if id == "reset" {
			err = n.Reset()
		} else {
			err = n.Write(simnet.DCWest, service.Post{ID: id, Author: "a1", Body: "x"})
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if size := fileSize(t, path); size <= steps[len(steps)-1].size {
			t.Fatalf("%s left the oplog at %d bytes: it was compacted, and the history is the uncompacted log", id, size)
		}
		steps = append(steps, sweepStep{fileSize(t, path), state(n)})
	}
	n.Kill()
	if got := steps[len(steps)-1].state; got != "[c d]" {
		t.Fatalf("history ends at %s, want [c d]", got)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// owed is what a log whose first valid bytes are whole acked: nothing
	// once not even the snapshot record is, an empty log aside.
	owed := func(valid int64) string {
		if valid > 0 && valid < steps[0].size {
			return declared
		}
		state := steps[0].state
		for _, s := range steps {
			if s.size <= valid {
				state = s.state
			}
		}
		return state
	}
	// boot starts the leader on raw, the oplog after damage what, and
	// says what it shows.
	boot := func(what string, raw []byte) string {
		dir := t.TempDir()
		name := filepath.Join(dir, "oplog.log")
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := NewNode(&memSvc{}, cfg(dir))
		if err != nil {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("%s: boot refused without naming %s: %v", what, name, err)
			}
			if after, rerr := os.ReadFile(name); rerr != nil || !bytes.Equal(after, raw) {
				t.Fatalf("%s: the refused boot changed the oplog (read error %v)", what, rerr)
			}
			return declared
		}
		defer r.Kill()
		if r.Rebuilding() {
			t.Fatalf("%s: booted rebuilding with %s, with no leader to rebuild from", what, state(r))
		}
		return state(r)
	}
	for cut := range len(full) + 1 {
		what := fmt.Sprintf("cut at %d", cut)
		if got, want := boot(what, full[:cut]), owed(int64(cut)); got != want {
			t.Fatalf("%s: recovered %s, want %s", what, got, want)
		}
	}
	for off := range full {
		raw := bytes.Clone(full)
		raw[off] ^= 0xff
		want := declared
		if valid, ok := intactPrefix(t, raw); ok && valid > 0 && int64(off) >= steps[len(steps)-2].size {
			want = owed(valid)
		}
		what := fmt.Sprintf("flip at %d", off)
		if got := boot(what, raw); got != want {
			t.Fatalf("%s: recovered %s, want %s", what, got, want)
		}
	}
}

// TestNewNodeRefusesLegacySnapshot: a data directory holding a file of a
// layout this build cannot read would boot empty — skipping node.snap,
// the snapshot a node once kept beside its oplog, would resurrect the
// history it compacted as loss, and a consvc -durable directory
// (wal-0.log, and state.snap in older builds) holds every write of the
// store a one-node leader replaced. The boot must fail naming the file
// and leave every byte in place.
func TestNewNodeRefusesLegacySnapshot(t *testing.T) {
	for _, legacy := range []string{"node.snap", "state.snap", "wal-0.log"} {
		t.Run(legacy, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{
				legacy:      "a file this build cannot read",
				"oplog.log": "not even a log",
				"term.log":  "nor this",
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := NewNode(&memSvc{}, Config{NodeID: "n1", Role: RoleLeader, DataDir: dir})
			if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, legacy)) {
				t.Fatalf("NewNode over a legacy directory: %v, want an error naming %s", err, legacy)
			}
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) != len(files) {
				t.Fatalf("refused boot left %d entries (%v), want the %d it found", len(entries), err, len(files))
			}
			for name, want := range files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != want {
					t.Fatalf("%s after the refused boot: %q, %v", name, got, err)
				}
			}
		})
	}
}
