package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/obs"
	"conprobe/internal/simnet"
	"conprobe/internal/wal"
)

// Durable configures crash-safe persistence for a Cluster. Every
// accepted write is appended to the WAL and fsynced before WriteEntry
// returns (concurrent writers share fsyncs through wal.Log's group
// commit), so "acked" means "on disk": a kill -9 at any instant loses no
// acknowledged write. Resets are journaled as epoch records; periodic
// snapshots compact the log using the tmp+rename+dir-sync discipline of
// internal/wal. Opening a Cluster over an existing directory replays
// snapshot+WAL, tolerating a torn final record per log (noted,
// truncated) and refusing to start on positioned mid-file corruption.
type Durable struct {
	// Dir is the persistence directory. Required; created if absent.
	Dir string
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// journaled writes (0 disables automatic snapshots; callers may
	// still compact via SnapshotNow).
	SnapshotEvery int
	// NoSync skips fsyncs (tests and benchmarks only); acked writes are
	// no longer crash-durable.
	NoSync bool
	// FS is the filesystem the WAL and snapshot live on; nil
	// means the real one. Storage-fault drills pass a diskfault FS. The
	// standalone store has no leader to re-source lost records from, so
	// unlike the cluster it never quarantines: mid-file corruption still
	// refuses to start — detection is its last line of defense — while
	// write-path faults (torn writes, failed fsyncs, ENOSPC) poison the
	// log so no unsynced write is ever acked.
	FS diskfault.FS
	// Metrics, when non-nil, surfaces storage-fault counters.
	Metrics *obs.Scope
}

// snapName and walName are the snapshot and log files inside a
// Durable.Dir.
const (
	snapName = "state.snap"
	walName  = "wal-0.log"
)

// walEntry is the serialized form of an Entry (epoch is unexported on
// Entry, so durability needs its own mirror).
type walEntry struct {
	ID         string    `json:"id"`
	Author     string    `json:"a,omitempty"`
	Body       string    `json:"b,omitempty"`
	DependsOn  string    `json:"d,omitempty"`
	Origin     string    `json:"o,omitempty"`
	CreatedAt  time.Time `json:"t"`
	ArrivalSeq uint64    `json:"s"`
	Epoch      uint64    `json:"e"`
}

// walRecord is one journaled mutation: a write ("w") or a reset ("r")
// installing a new epoch.
type walRecord struct {
	Kind  string    `json:"k"`
	Epoch uint64    `json:"e,omitempty"`
	Entry *walEntry `json:"w,omitempty"`
}

// snapshotState is the snapshot payload: the accepted writes as of the
// snapshot plus the counters recovery must restore.
type snapshotState struct {
	Epoch   uint64     `json:"epoch"`
	MaxSeq  uint64     `json:"max_seq"`
	Entries []walEntry `json:"entries"`
}

// durableState is the runtime half of Durable, attached to a Cluster.
type durableState struct {
	cfg Durable
	log *wal.Log

	// mu orders live-set mutation against snapshotting: logWrite appends
	// to live before touching the WAL, and snapshot marshals live and
	// truncates the log under the same lock, so an entry whose WAL
	// record is truncated away mid-append is already in the snapshot
	// (recovery dedups by ID for entries present in both).
	mu        sync.Mutex
	live      []Entry
	writes    int    // journaled writes since the last snapshot
	maxSeq    uint64 // highest ArrivalSeq ever journaled
	lastEpoch uint64 // epoch floor installed by the latest journaled reset
	err       error  // first reset-journaling failure; poisons later writes

	note string // torn-tail recovery notes, for diagnostics
}

// toWalEntry serializes e.
func toWalEntry(e Entry) walEntry {
	return walEntry{
		ID: e.ID, Author: e.Author, Body: e.Body, DependsOn: e.DependsOn,
		Origin: string(e.Origin), CreatedAt: e.CreatedAt,
		ArrivalSeq: e.ArrivalSeq, Epoch: e.epoch,
	}
}

// toEntry deserializes w.
func toEntry(w walEntry) Entry {
	return Entry{
		ID: w.ID, Author: w.Author, Body: w.Body, DependsOn: w.DependsOn,
		Origin: simnet.Site(w.Origin), CreatedAt: w.CreatedAt,
		ArrivalSeq: w.ArrivalSeq, epoch: w.Epoch,
	}
}

// openDurable opens (or creates) the persistence directory, replays
// snapshot+WALs, and installs the recovered state into c. Called from
// NewCluster after the replicas exist.
func (c *Cluster) openDurable(cfg Durable) error {
	if cfg.Dir == "" {
		return fmt.Errorf("store: Durable requires a Dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("store: durable dir: %w", err)
	}
	d := &durableState{cfg: cfg}

	var (
		entries []walEntry
		epoch   uint64
		maxSeq  uint64
		notes   []string
	)
	payload, ok, err := wal.ReadSnapshotFS(cfg.FS, filepath.Join(cfg.Dir, snapName))
	if err != nil {
		return fmt.Errorf("store: reading snapshot: %w", err)
	}
	if ok {
		var snap snapshotState
		if err := json.Unmarshal(payload, &snap); err != nil {
			return fmt.Errorf("store: decoding snapshot: %w", err)
		}
		epoch = snap.Epoch
		maxSeq = snap.MaxSeq
		entries = snap.Entries
		// Older snapshots computed MaxSeq from the counter alone; trust
		// the entries over the header so no recovered seq is re-issued.
		for _, w := range entries {
			if w.ArrivalSeq > maxSeq {
				maxSeq = w.ArrivalSeq
			}
		}
	}

	// Replay every WAL present: builds that striped the store wrote
	// wal-0.log … wal-N.log, and none of their acked writes may be lost.
	// Only walName stays open for appends; the rest are removed below.
	paths, err := filepath.Glob(filepath.Join(cfg.Dir, "wal-*.log"))
	if err != nil {
		return err
	}
	livePath := filepath.Join(cfg.Dir, walName)
	if !slices.Contains(paths, livePath) {
		paths = append(paths, livePath)
	}
	sort.Strings(paths)
	opts := wal.Options{NoSync: cfg.NoSync, FS: cfg.FS, Metrics: cfg.Metrics}
	var stale []string
	for _, path := range paths {
		l, rep, err := wal.Open(path, opts)
		if err != nil {
			d.closeLog()
			return fmt.Errorf("store: replaying %s: %w", path, err)
		}
		if path == livePath {
			d.log = l
		} else {
			l.Close()
			stale = append(stale, path)
		}
		if rep.Note != "" {
			notes = append(notes, fmt.Sprintf("%s: %s", filepath.Base(path), rep.Note))
		}
		for _, raw := range rep.Records {
			var rec walRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				d.closeLog()
				return fmt.Errorf("store: decoding record in %s: %w", path, err)
			}
			switch rec.Kind {
			case "w":
				if rec.Entry == nil {
					d.closeLog()
					return fmt.Errorf("store: write record without entry in %s", path)
				}
				entries = append(entries, *rec.Entry)
				if rec.Entry.Epoch > epoch {
					epoch = rec.Entry.Epoch
				}
				if rec.Entry.ArrivalSeq > maxSeq {
					maxSeq = rec.Entry.ArrivalSeq
				}
			case "r":
				if rec.Epoch > epoch {
					epoch = rec.Epoch
				}
			default:
				d.closeLog()
				return fmt.Errorf("store: unknown record kind %q in %s", rec.Kind, path)
			}
		}
	}

	// The final epoch wins: only its entries survive (journaled resets
	// discard earlier generations exactly as the in-memory Reset does).
	// Entries can appear in both snapshot and WAL if a crash landed
	// between snapshot rename and log truncation — dedup by ID.
	seen := make(map[string]bool, len(entries))
	recovered := make([]Entry, 0, len(entries))
	for _, w := range entries {
		if w.Epoch != epoch || seen[w.ID] {
			continue
		}
		seen[w.ID] = true
		recovered = append(recovered, toEntry(w))
	}
	sort.Slice(recovered, func(i, j int) bool {
		return recovered[i].ArrivalSeq < recovered[j].ArrivalSeq
	})

	c.epoch.Store(epoch)
	c.epochLag.Store(int64(c.sampleEpochLag(epoch)))
	c.hybridOn.Store(c.sampleEpochHybrid(epoch))
	c.seq.Store(maxSeq)
	// Recovered writes were acknowledged; install them at every replica.
	// Propagation in flight at the crash is lost with the process, so
	// recovery converges the replicas rather than replaying the race.
	now := c.clock.Now()
	for _, site := range c.cfg.Sites {
		r := c.replicas[site]
		for _, e := range recovered {
			c.apply(r, e, now)
		}
	}
	d.live = recovered
	d.maxSeq = maxSeq
	d.lastEpoch = epoch
	c.durable = d

	// Compact on open: recovery already merged snapshot+WAL, so persist
	// that merge and start the log empty.
	if err := c.SnapshotNow(); err != nil {
		d.closeLog()
		c.durable = nil
		return fmt.Errorf("store: compacting on open: %w", err)
	}
	// Only now — the snapshot holding their records is renamed into place
	// and dir-synced — may the stripe logs go. A removal that fails or
	// does not survive a crash costs nothing but a repeat: the next open
	// replays the leftover, dedups it against the snapshot and retries.
	if len(stale) > 0 {
		fsys := cfg.FS
		if fsys == nil {
			fsys = diskfault.OS
		}
		for _, path := range stale {
			if err := fsys.Remove(path); err != nil {
				notes = append(notes, fmt.Sprintf("%s: stale stripe log not removed: %v", filepath.Base(path), err))
			}
		}
		if err := wal.SyncDirFS(fsys, cfg.Dir); err != nil {
			notes = append(notes, fmt.Sprintf("stale stripe log removal not synced: %v", err))
		}
	}
	d.note = strings.Join(notes, "; ")
	return nil
}

// logWrite journals e and returns once it is on disk. Returns the
// error to surface to the writer: a write that cannot be made durable
// must not be acknowledged — and a write that was NOT acknowledged must
// not survive recovery, so a failed append is scrubbed from the live
// set (and from disk) before the error is returned.
func (d *durableState) logWrite(e Entry) error {
	raw, err := json.Marshal(walRecord{Kind: "w", Entry: ptr(toWalEntry(e))})
	if err != nil {
		return err
	}
	d.mu.Lock()
	if d.err != nil {
		err := d.err
		d.mu.Unlock()
		return fmt.Errorf("store: durable log poisoned by earlier failure: %w", err)
	}
	d.live = append(d.live, e)
	d.mu.Unlock()
	if err := d.log.Append(raw); err != nil {
		// The write is being rejected, so nothing of it may persist: a
		// concurrent snapshot could have captured the live set with e in
		// it, and a frame that reached the file without its fsync would
		// replay after a crash. Drop e from live and rewrite the snapshot
		// (which truncates the log) from the corrected set; if even
		// that fails, poison the log — as logReset does — rather than ack
		// later writes against a state that can resurrect this one.
		d.mu.Lock()
		d.dropLiveLocked(e)
		if serr := d.snapshotLocked(); serr != nil && d.err == nil {
			d.err = serr
		}
		d.mu.Unlock()
		return err
	}
	d.mu.Lock()
	d.writes++
	if e.ArrivalSeq > d.maxSeq {
		d.maxSeq = e.ArrivalSeq
	}
	doSnap := d.cfg.SnapshotEvery > 0 && d.writes >= d.cfg.SnapshotEvery
	d.mu.Unlock()
	if doSnap {
		return d.snapshot()
	}
	return nil
}

// dropLiveLocked removes the staged entry e from the live set, matching
// by ID and arrival seq; a reset that raced the append may have already
// cleared it. Caller holds d.mu.
func (d *durableState) dropLiveLocked(e Entry) {
	for i := len(d.live) - 1; i >= 0; i-- {
		if d.live[i].ID == e.ID && d.live[i].ArrivalSeq == e.ArrivalSeq {
			d.live = append(d.live[:i], d.live[i+1:]...)
			return
		}
	}
}

// ptr returns &v (json needs an addressable entry).
func ptr(v walEntry) *walEntry { return &v }

// logReset journals an epoch change. Reset has no error return, so a
// failure is stashed and poisons subsequent writes instead of being
// dropped: continuing to ack writes whose epoch floor is not durable
// would resurrect discarded entries after a crash.
func (d *durableState) logReset(epoch uint64) {
	raw, err := json.Marshal(walRecord{Kind: "r", Epoch: epoch})
	if err == nil {
		err = d.log.Append(raw)
	}
	d.mu.Lock()
	d.live = d.live[:0]
	d.writes = 0
	if epoch > d.lastEpoch {
		d.lastEpoch = epoch
	}
	if err != nil && d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

// snapshot persists the live set and truncates the WAL. The lock
// spans marshal, snapshot write and truncation, so no write can slip
// its WAL record into the log between the marshal and the truncate
// without also being in live (logWrite appends to live first).
func (d *durableState) snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// snapshotLocked is snapshot with d.mu already held (logWrite's append
// failure path snapshots while holding the lock it took to scrub live).
func (d *durableState) snapshotLocked() error {
	// A Reset may have raced acceptance: live can hold entries from a
	// superseded epoch. Keep them — recovery filters by final epoch —
	// but record each entry's own epoch so it can. MaxSeq likewise takes
	// the live entries into account: a write mid-logWrite is in live
	// before it bumps d.maxSeq, and recovery must never hand out a seq
	// an existing entry already holds.
	st := snapshotState{MaxSeq: d.maxSeq, Entries: make([]walEntry, len(d.live))}
	for i, e := range d.live {
		st.Entries[i] = toWalEntry(e)
		if e.epoch > st.Epoch {
			st.Epoch = e.epoch
		}
		if e.ArrivalSeq > st.MaxSeq {
			st.MaxSeq = e.ArrivalSeq
		}
	}
	if epoch := d.lastEpoch; epoch > st.Epoch {
		st.Epoch = epoch
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := wal.WriteSnapshotFS(d.cfg.FS, filepath.Join(d.cfg.Dir, snapName), payload, wal.DefaultFileMode); err != nil {
		return err
	}
	if err := d.log.Truncate(); err != nil {
		return err
	}
	d.writes = 0
	return nil
}

// closeLog releases the WAL file, if recovery got as far as opening it.
func (d *durableState) closeLog() {
	if d.log != nil {
		d.log.Close()
	}
}

// SnapshotNow compacts the durable state: persists a snapshot and
// truncates the WAL. No-op on a non-durable cluster.
func (c *Cluster) SnapshotNow() error {
	if c.durable == nil {
		return nil
	}
	return c.durable.snapshot()
}

// RecoveryNote reports what the last open had to tolerate — a torn tail
// ("wal-0.log: dropped torn final record at byte offset N"), a stale
// stripe log it could not remove; empty when recovery was clean or the
// cluster is not durable.
func (c *Cluster) RecoveryNote() string {
	if c.durable == nil {
		return ""
	}
	return c.durable.note
}

// Close snapshots (compacting the WAL) and releases the durable
// files. No-op on a non-durable cluster.
func (c *Cluster) Close() error {
	if c.durable == nil {
		return nil
	}
	err := c.durable.snapshot()
	c.durable.closeLog()
	return err
}
