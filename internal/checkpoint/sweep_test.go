package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"conprobe/internal/diskfault"
)

// sweepSeeds mirrors the cluster sweep's seed selection: DISKCHAOS_SEED
// pins one seed for a repro, otherwise a small fixed set runs.
func sweepSeeds(t *testing.T) []uint64 {
	if s := os.Getenv("DISKCHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("DISKCHAOS_SEED=%q: %v", s, err)
		}
		return []uint64{v}
	}
	return []uint64{1, 2, 3}
}

// TestJournalFaultSweep is the checkpoint-journal leg of the seeded
// disk-fault sweep (the cluster sites run in internal/cluster's
// TestDiskFaultSweep): every fault kind lands mid-campaign at a
// seed-chosen offset, and these invariants must hold no matter where:
//
//   - the campaign never aborts — every Append after the fault returns
//     nil, with the failure surfaced through Degraded();
//   - a torn write, ENOSPC or failed fsync degrades the journal: the
//     fault cannot go unnoticed;
//   - whatever journal is left on disk is either unreadable-with-error
//     or a valid prefix — never a silently wrong resume state.
func TestJournalFaultSweep(t *testing.T) {
	for _, seed := range sweepSeeds(t) {
		for _, kind := range diskfault.Kinds() {
			seed, kind := seed, kind
			t.Run(fmt.Sprintf("seed=%d/%s", seed, kind), func(t *testing.T) {
				if kind == diskfault.KindBitFlip {
					sweepJournalBitFlip(t, seed)
					return
				}
				sweepJournalWriteFault(t, seed, kind)
			})
		}
	}
}

func sweepJournalWriteFault(t *testing.T, seed uint64, kind diskfault.Kind) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.jsonl")
	traces := campaignTraces(t)

	inj := diskfault.New(nil)
	w, err := Create(path, testMeta, Config{KeepTraces: true, FS: inj.FS()})
	if err != nil {
		t.Fatal(err)
	}
	// Armed after Create so the fault lands mid-campaign, where degrade
	// (not a hard error) is the contract.
	if err := inj.Arm(diskfault.Fault{
		Kind: kind, Path: faultTarget(kind),
		After: int(seed % 3), Seed: seed, Sticky: kind == diskfault.KindENOSPC,
	}); err != nil {
		t.Fatal(err)
	}

	base := testMeta.Start
	for i, tr := range traces {
		if err := w.Append(i%2, tr, base.Add(time.Duration(i+1)*time.Minute), nil); err != nil {
			t.Fatalf("append %d aborted the campaign: %v", i, err)
		}
		// The syncer coalesces the fsyncs of frames written while it is
		// busy, so without this barrier how many fsyncs a campaign makes
		// depends on timing, and a fault After k of them might never
		// fire. Degraded waits for every frame so far: one fsync each.
		w.Degraded()
	}
	// Write and fsync faults land on an operation every campaign makes;
	// they must degrade the journal, not go unnoticed.
	if mustFire(kind) && w.Degraded() == nil {
		t.Fatalf("%s fault never degraded the journal", kind)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close after fault: %v", err)
	}
	// dir-sync omission is silent by design and may leave the journal
	// fully healthy, and the campaign renames nothing for a crash-rename
	// to hit. What is NOT fine is an unreadable journal.
	st, err := Load(path)
	if err != nil {
		t.Fatalf("journal after %s fault does not load: %v", kind, err)
	}
	if !st.Meta.Matches(testMeta) {
		t.Fatalf("journal after %s fault resumed with wrong meta: %+v", kind, st.Meta)
	}
}

func sweepJournalBitFlip(t *testing.T, seed uint64) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.jsonl")
	journalCampaign(t, path, campaignTraces(t), Config{KeepTraces: true})

	inj := diskfault.New(nil)
	if err := inj.Arm(diskfault.Fault{
		Kind: diskfault.KindBitFlip, Path: "checkpoint.jsonl", Seed: seed,
	}); err != nil {
		t.Fatal(err)
	}
	// A flip is either detected (load error, positioned) or lands in the
	// torn-tolerated final frame, in which case the surviving prefix must
	// still be a valid resume state — never silent garbage.
	st, err := LoadFS(inj.FS(), path)
	if err != nil {
		return
	}
	if !st.Meta.Matches(testMeta) {
		t.Fatalf("bit-flipped journal loaded with wrong meta: %+v", st.Meta)
	}
}

// mustFire reports whether a fault kind hits an operation every
// journaled campaign performs: a frame write or its fsync.
func mustFire(kind diskfault.Kind) bool {
	return kind == diskfault.KindTorn || kind == diskfault.KindENOSPC || kind == diskfault.KindFsyncGate
}

// faultTarget picks the Path filter per kind: directory syncs see the
// directory path, so the omission fault matches everything; the rest
// aim at the journal.
func faultTarget(kind diskfault.Kind) string {
	if kind == diskfault.KindDirSyncOmit {
		return ""
	}
	return "checkpoint"
}
