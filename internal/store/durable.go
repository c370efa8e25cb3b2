package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
// acknowledged write. Resets are journaled as epoch records. The log is
// its own snapshot: compaction atomically rewrites it (wal.Log.Rewrite)
// as one epoch record and one write record per live entry, so a crash
// leaves the old log or the compacted one. Opening a Cluster over an
// existing directory replays that one file, tolerating a torn final
// record (noted, truncated) and refusing to start on positioned
// mid-file corruption.
type Durable struct {
	// Dir is the persistence directory. Required; created if absent.
	Dir string
	// SnapshotEvery compacts the WAL once this many records — writes and
	// resets — have been journaled since the last compaction (0 disables
	// automatic compaction; callers may still compact via SnapshotNow).
	SnapshotEvery int
	// NoSync skips fsyncs (tests and benchmarks only); acked writes are
	// no longer crash-durable.
	NoSync bool
	// FS is the filesystem the WAL lives on; nil means the real one.
	// Storage-fault drills pass a diskfault FS. The standalone store has
	// no leader to re-source lost records from, so unlike the cluster it
	// never quarantines: mid-file corruption still refuses to start —
	// detection is its last line of defense — while write-path faults
	// (torn writes, failed fsyncs, ENOSPC) poison the log so no unsynced
	// write is ever acked.
	FS diskfault.FS
	// Metrics, when non-nil, surfaces storage-fault counters.
	Metrics *obs.Scope
}

// walName is the log file inside a Durable.Dir. legacySnapName is the
// snapshot builds before the log became its own snapshot kept beside it;
// a directory that still holds one is refused, because replaying its log
// without it would lose every compacted write.
const (
	walName        = "wal-0.log"
	legacySnapName = "state.snap"
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
// installing a new epoch. The reset record at the head of a compacted
// log also carries the highest ArrivalSeq journaled so far, which the
// write records compaction dropped can no longer show.
type walRecord struct {
	Kind   string    `json:"k"`
	Epoch  uint64    `json:"e,omitempty"`
	MaxSeq uint64    `json:"s,omitempty"`
	Entry  *walEntry `json:"w,omitempty"`
}

// durableState is the runtime half of Durable, attached to a Cluster.
type durableState struct {
	cfg Durable
	log *wal.Log

	// mu orders live-set mutation against compaction: logWrite appends
	// to live before touching the WAL, and snapshot marshals live and
	// rewrites the log under the same lock, so an entry whose WAL record
	// went to the file the rewrite replaced is already in the new one
	// (recovery dedups by ID for an entry that landed in both).
	mu        sync.Mutex
	live      []Entry
	records   int    // records journaled since the last compaction
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
// the WAL, and installs the recovered state into c. Called from
// NewCluster after the replicas exist.
func (c *Cluster) openDurable(cfg Durable) error {
	if cfg.Dir == "" {
		return fmt.Errorf("store: Durable requires a Dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("store: durable dir: %w", err)
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = diskfault.OS
	}
	legacy := filepath.Join(cfg.Dir, legacySnapName)
	if _, err := fsys.Stat(legacy); err == nil {
		return fmt.Errorf("store: %s was written by an older build that kept a snapshot beside its log; this build cannot read it", legacy)
	}
	path := filepath.Join(cfg.Dir, walName)
	log, rep, err := wal.Open(path, wal.Options{NoSync: cfg.NoSync, FS: cfg.FS, Metrics: cfg.Metrics})
	if err != nil {
		return fmt.Errorf("store: replaying %s: %w", path, err)
	}
	d := &durableState{cfg: cfg, log: log}
	if rep.Note != "" {
		d.note = fmt.Sprintf("%s: %s", walName, rep.Note)
	}

	var (
		entries []walEntry
		epoch   uint64
		maxSeq  uint64
	)
	for _, raw := range rep.Records {
		var rec walRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			log.Close()
			return fmt.Errorf("store: decoding record in %s: %w", path, err)
		}
		switch rec.Kind {
		case "w":
			if rec.Entry == nil {
				log.Close()
				return fmt.Errorf("store: write record without entry in %s", path)
			}
			entries = append(entries, *rec.Entry)
			epoch = max(epoch, rec.Entry.Epoch)
			maxSeq = max(maxSeq, rec.Entry.ArrivalSeq)
		case "r":
			epoch = max(epoch, rec.Epoch)
			maxSeq = max(maxSeq, rec.MaxSeq)
		default:
			log.Close()
			return fmt.Errorf("store: unknown record kind %q in %s", rec.Kind, path)
		}
	}

	// The final epoch wins: only its entries survive (journaled resets
	// discard earlier generations exactly as the in-memory Reset does).
	// An entry appears twice when its append raced a compaction that had
	// already copied it from the live set — dedup by ID.
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

	// Compact on open: dead generations and duplicates go, and so does a
	// temp file a compaction killed mid-write left behind.
	if err := c.SnapshotNow(); err != nil {
		log.Close()
		c.durable = nil
		return fmt.Errorf("store: compacting on open: %w", err)
	}
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
		// concurrent compaction could have captured the live set with e
		// in it, and a frame that reached the file without its fsync
		// would replay after a crash. Drop e from live and rewrite the
		// log from the corrected set; if even that fails, poison the log
		// — as logReset does — rather than ack later writes against a
		// state that can resurrect this one.
		d.mu.Lock()
		d.dropLiveLocked(e)
		if serr := d.snapshotLocked(); serr != nil && d.err == nil {
			d.err = serr
		}
		d.mu.Unlock()
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.maxSeq = max(d.maxSeq, e.ArrivalSeq)
	return d.journaledLocked()
}

// journaledLocked counts one more record in the log and compacts it
// once SnapshotEvery have accumulated. Resets count like writes and do
// not restart the count: a service reset every few writes (every
// campaign test is reset + about ten writes) would otherwise never reach
// the threshold, and its log would keep every discarded generation.
// Caller holds d.mu.
func (d *durableState) journaledLocked() error {
	d.records++
	if d.cfg.SnapshotEvery > 0 && d.records >= d.cfg.SnapshotEvery {
		return d.snapshotLocked()
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
// would resurrect discarded entries after a crash. The lock spans the
// append, so a compaction cannot copy the old generation from live after
// the reset record is in the log it is about to replace.
func (d *durableState) logReset(epoch uint64) {
	raw, err := json.Marshal(walRecord{Kind: "r", Epoch: epoch})
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		err = d.log.Append(raw)
	}
	d.live = d.live[:0]
	d.lastEpoch = max(d.lastEpoch, epoch)
	if err == nil {
		err = d.journaledLocked()
	}
	if err != nil && d.err == nil {
		d.err = err
	}
}

// snapshot compacts the log to the live set. The lock spans marshal and
// rewrite, so no write can slip its WAL record into the old file after
// the marshal without also being in live (logWrite appends to live
// first).
func (d *durableState) snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// snapshotLocked is snapshot with d.mu already held (logWrite's append
// failure path compacts while holding the lock it took to scrub live).
func (d *durableState) snapshotLocked() error {
	// A Reset may have raced acceptance: live can hold entries from a
	// superseded epoch. Keep them — recovery filters by final epoch —
	// but record each entry's own epoch so it can. MaxSeq likewise takes
	// the live entries into account: a write mid-logWrite is in live
	// before it bumps d.maxSeq, and recovery must never hand out a seq
	// an existing entry already holds.
	head := walRecord{Kind: "r", Epoch: d.lastEpoch, MaxSeq: d.maxSeq}
	recs := make([][]byte, 1, 1+len(d.live))
	for _, e := range d.live {
		head.Epoch = max(head.Epoch, e.epoch)
		head.MaxSeq = max(head.MaxSeq, e.ArrivalSeq)
		raw, err := json.Marshal(walRecord{Kind: "w", Entry: ptr(toWalEntry(e))})
		if err != nil {
			return err
		}
		recs = append(recs, raw)
	}
	var err error
	if recs[0], err = json.Marshal(head); err != nil {
		return err
	}
	if err := d.log.Rewrite(recs); err != nil {
		return err
	}
	d.records = 0
	return nil
}

// SnapshotNow compacts the durable state: rewrites the WAL to the live
// set. No-op on a non-durable cluster.
func (c *Cluster) SnapshotNow() error {
	if c.durable == nil {
		return nil
	}
	return c.durable.snapshot()
}

// RecoveryNote reports what the last open had to tolerate — a torn tail
// ("wal-0.log: dropped torn final record at byte offset N"); empty when
// recovery was clean or the cluster is not durable.
func (c *Cluster) RecoveryNote() string {
	if c.durable == nil {
		return ""
	}
	return c.durable.note
}

// Close compacts the WAL and releases it. No-op on a non-durable
// cluster.
func (c *Cluster) Close() error {
	if c.durable == nil {
		return nil
	}
	err := c.durable.snapshot()
	if cerr := c.durable.log.Close(); err == nil {
		err = cerr
	}
	return err
}
