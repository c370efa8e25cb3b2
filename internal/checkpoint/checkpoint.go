// Package checkpoint implements the crash-safe campaign journal: an
// append-only wal.Log recording, one frame per completed test, which
// lane ran it, the lane's next instant, that test's streaming-analysis
// contribution and (optionally) its trace. A campaign killed at any
// instant — including mid-append — resumes from the journal and produces
// byte-identical output to an uninterrupted run.
//
// File format: internal/wal's CRC32 framing. Frame 0 is the campaign's
// Meta (service, seed, lanes, counts), checked on resume so a journal is
// never replayed into a different campaign; Create writes it by atomic
// replace (temp, fsync, rename, directory fsync). Every later frame is
// one record: the lane, the test's ID, the virtual instant the lane's
// next step begins, the lane's resilience-middleware state, the
// analysis.Snapshot of an aggregator fed that one test, and the trace
// unless the campaign discards traces. The journal runs no checker: the
// lane hands AppendDelta the one-test aggregate that
// analysis.Aggregator.AddDelta left from the lane's own checker run.
//
// Crash safety: a test's trace and its lane progress share one frame,
// so a torn write loses the whole test (it re-runs on resume;
// deterministic worlds make the re-run identical) or nothing.
// AppendDelta writes the frame in the calling lane and a syncer fsyncs it
// behind: a process kill loses nothing AppendDelta wrote, and a power cut
// (the file cut back to any byte past its last fsync) loses at most the
// maxUnsynced = 64 tests not yet fsynced, which re-run on resume the
// same way. Only the final frame of a journal may be damaged — Load drops
// it with a note and Continue truncates it away; damage anywhere else is
// reported as corruption, not tolerated. Nothing is ever rewritten: Load
// merges each lane's per-test snapshots in file order into the lane's
// aggregator, which appends the same samples in the same order as feeding
// the lane's tests to one aggregator, so the state it hands a resumed lane
// is the state the lane held when it wrote the frame.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/diskfault"
	"conprobe/internal/jsonappend"
	"conprobe/internal/resilience"
	"conprobe/internal/trace"
	"conprobe/internal/wal"
)

// Meta identifies the campaign a journal belongs to. Resume refuses a
// journal whose Meta does not match the options of the resuming run.
type Meta struct {
	Service         string    `json:"service"`
	Seed            int64     `json:"seed"`
	Lanes           int       `json:"lanes"`
	Test1Count      int       `json:"test1_count"`
	Test2Count      int       `json:"test2_count"`
	AlternateBlocks int       `json:"alternate_blocks"`
	Start           time.Time `json:"start"`
	Rotate          int       `json:"rotate,omitempty"`
	SyncSamples     int       `json:"sync_samples,omitempty"`
}

// Matches reports whether two campaign identities agree in every
// field. Start is compared as an instant (a JSON round trip may change
// its internal representation without changing the time it names).
func (m Meta) Matches(other Meta) bool {
	m.Start, other.Start = m.Start.UTC(), other.Start.UTC()
	return m == other
}

// LaneRecord is one lane's journaled progress, folded from its frames.
type LaneRecord struct {
	// Lane is the lane index.
	Lane int
	// Done lists the TestIDs the lane has completed, in completion order.
	Done []int
	// Next is the virtual instant the lane's next schedule step begins
	// (the completed test's gap included); a resumed lane rebuilds its
	// world there.
	Next time.Time
	// Agg is the lane's aggregator after folding every Done test: the
	// journal's per-test snapshots merged in file order. A resumed lane
	// carries on with it.
	Agg *analysis.Aggregator
	// Resilience maps agent labels to the lane's resilience-middleware
	// state (retry counters, breaker position) after the last Done test.
	// Breaker health legitimately spans tests, so a resumed lane must
	// rewind it to reproduce the uninterrupted run. Absent when the
	// campaign runs without the resilience middleware.
	Resilience map[string]resilience.Snapshot
}

// record is the payload of every frame after the meta: one completed
// test. Agg is the snapshot of an aggregator fed this test alone. Load
// decodes into it; appendRecord writes the same bytes without it.
type record struct {
	Lane       int                            `json:"lane"`
	Test       int                            `json:"test"`
	Next       time.Time                      `json:"next"`
	Resilience map[string]resilience.Snapshot `json:"resilience,omitempty"`
	Agg        json.RawMessage                `json:"agg"`
	Trace      *trace.TestTrace               `json:"trace,omitempty"`
}

// State is a journal's decoded content.
type State struct {
	// Meta is the campaign identity the journal was created with.
	Meta Meta
	// Lanes maps lane index to that lane's latest journaled progress;
	// lanes that never completed a test are absent.
	Lanes map[int]*LaneRecord
	// Traces are the journaled completed traces, sorted by TestID.
	// Empty when the campaign journals with traces disabled.
	Traces []*trace.TestTrace
	// Note reports tolerated damage ("dropped torn final record at byte
	// offset N"), empty for a clean journal.
	Note string
}

// Done returns lane's completed TestIDs as a set (nil when the lane
// never completed a test).
func (s *State) Done(lane int) map[int]bool {
	lr := s.Lanes[lane]
	if lr == nil {
		return nil
	}
	done := make(map[int]bool, len(lr.Done))
	for _, id := range lr.Done {
		done[id] = true
	}
	return done
}

// CompletedTraces returns the journaled traces, sorted by TestID. A
// trace shares its frame with the lane progress that marks its test
// done, so every journaled trace is a completed one.
func (s *State) CompletedTraces() []*trace.TestTrace { return s.Traces }

// Load reads and verifies a journal from the real filesystem. See
// LoadFS.
func Load(path string) (*State, error) { return LoadFS(nil, path) }

// LoadFS reads and verifies a journal without modifying it. A damaged
// final frame is dropped and noted (the classic torn tail of a crash
// mid-append); damage anywhere else is an error positioned by byte
// offset. fsys nil means the real filesystem.
func LoadFS(fsys diskfault.FS, path string) (*State, error) {
	rep, err := wal.ReadFS(fsys, path)
	if err != nil {
		var ce *wal.CorruptError
		if errors.As(err, &ce) && ce.Offset == 0 && firstByte(fsys, path) == '{' {
			return nil, fmt.Errorf("checkpoint %s: journal written by an older build; re-run the campaign", path)
		}
		return nil, err
	}
	st := &State{Lanes: make(map[int]*LaneRecord), Note: rep.Note}
	if len(rep.Records) == 0 || json.Unmarshal(rep.Records[0], &st.Meta) != nil || st.Meta.Service == "" {
		return nil, fmt.Errorf("checkpoint %s: no meta record; not a campaign journal", path)
	}
	for i, raw := range rep.Records[1:] {
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("checkpoint %s: frame %d: %w", path, i+1, err)
		}
		delta, err := analysis.RestoreAggregator(rec.Agg)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %s: frame %d: %w", path, i+1, err)
		}
		lr := st.Lanes[rec.Lane]
		if lr == nil {
			lr = &LaneRecord{Lane: rec.Lane, Agg: analysis.NewAggregator(st.Meta.Service)}
			st.Lanes[rec.Lane] = lr
		}
		lr.Agg.Merge(delta)
		lr.Done = append(lr.Done, rec.Test)
		lr.Next = rec.Next
		lr.Resilience = rec.Resilience
		if rec.Trace != nil {
			st.Traces = append(st.Traces, rec.Trace)
		}
	}
	sort.Slice(st.Traces, func(i, j int) bool { return st.Traces[i].TestID < st.Traces[j].TestID })
	return st, nil
}

// firstByte returns the first byte of the file at path, or 0 when it
// cannot be read.
func firstByte(fsys diskfault.FS, path string) byte {
	if fsys == nil {
		fsys = diskfault.OS
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0
	}
	defer f.Close()
	var b [1]byte
	_, _ = io.ReadFull(f, b[:]) // a failed read leaves the 0 that means "unknown"
	return b[0]
}

// Config parameterizes a journal writer.
type Config struct {
	// KeepTraces journals each completed trace alongside the lane
	// progress, so a resumed campaign's Result carries the full trace
	// set. Disable for DiscardTraces campaigns.
	KeepTraces bool
	// FS is the filesystem the journal lives on; nil means the real
	// one. Storage-fault drills pass a diskfault FS.
	FS diskfault.FS
}

// maxUnsynced bounds the frames a Writer holds written but not yet
// fsynced: an AppendDelta that finds this many waits for the syncer. It
// is what a power cut can cost (the tests re-run on resume), and it is
// generous because a tight bound puts the disk back on the lanes' path.
const maxUnsynced = 64

// Writer journals a running campaign. AppendDelta is safe for concurrent
// use across lanes: each call builds its frame in a buffer of its own and
// writes it, in the calling lane, through the wal.Log, which orders the
// writes. A syncer goroutine makes the frames durable behind the lanes:
// one fsync covers every frame written before it starts, and a lane
// waits for the disk only when maxUnsynced frames are unsynced.
//
// A storage failure mid-campaign (ENOSPC, failed fsync) DEGRADES the
// journal instead of aborting the run: AppendDelta starts returning nil
// without touching the disk, and Degraded reports the failure so the
// caller can surface a warning. The campaign finishes on its own; only
// crash-resumability is lost — the journal on disk stays a valid (if
// stale) prefix, because every frame is checksummed and a torn final
// frame is tolerated on load.
type Writer struct {
	keepTraces bool
	service    string
	log        *wal.Log
	degraded   atomic.Pointer[error] // first storage failure; journaling is off once set

	// mu guards the fields below. written and synced count records as
	// the wal.Log does (the meta and any resumed frames included).
	// behind wakes the syncer when written passes synced; advanced wakes
	// whoever waits on the syncer's progress.
	mu         sync.Mutex
	behind     sync.Cond
	advanced   sync.Cond
	written    uint64 // records written to the file
	synced     uint64 // records an fsync has made durable
	syncFailed bool   // an fsync failed: synced will not move again
	closing    bool
	stopped    chan struct{} // closed when the syncer returns
	// free holds the frames no AppendDelta is working in: as many as
	// ever ran at once, kept for the Writer's life, so a lane never
	// regrows one.
	free []*frame
}

// frame is what an AppendDelta works in, kept from one call to the next:
// the buffer it encodes into (the wal.Log copies the payload and does not
// retain it).
type frame struct {
	buf []byte
}

// Create starts a fresh journal at path, atomically replacing any
// previous one with a journal holding only the meta record.
func Create(path string, meta Meta, cfg Config) (*Writer, error) {
	raw, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding meta: %w", err)
	}
	if err := wal.WriteSnapshotFS(cfg.FS, path, raw, 0); err != nil {
		return nil, fmt.Errorf("checkpoint: creating journal: %w", err)
	}
	return open(path, meta.Service, cfg)
}

// Continue reopens the journal st was loaded from for appending; any
// tolerated tail damage is truncated away before the resumed campaign
// appends.
func Continue(path string, st *State, cfg Config) (*Writer, error) {
	return open(path, st.Meta.Service, cfg)
}

func open(path, service string, cfg Config) (*Writer, error) {
	log, rep, err := wal.Open(path, wal.Options{FS: cfg.FS})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening journal: %w", err)
	}
	w := &Writer{keepTraces: cfg.KeepTraces, service: service, log: log, stopped: make(chan struct{})}
	w.behind.L, w.advanced.L = &w.mu, &w.mu
	w.written = uint64(len(rep.Records))
	w.synced = w.written
	go w.syncLoop()
	return w, nil
}

// syncLoop is the syncer: whenever frames are written and not yet
// durable it fsyncs them all at once, until Close has it sync the last.
func (w *Writer) syncLoop() {
	defer close(w.stopped)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for (w.synced == w.written || w.syncFailed) && !w.closing {
			w.behind.Wait()
		}
		if w.synced == w.written || w.syncFailed {
			return // closing, with nothing left that an fsync could save
		}
		n := w.written
		w.mu.Unlock()
		err := w.log.Sync(n)
		w.mu.Lock()
		if err != nil {
			// The log is poisoned (a failed fsync may have dropped the
			// dirty pages): nothing written since the last good fsync will
			// ever be durable, so stop journaling and release every waiter.
			w.degrade(fmt.Errorf("checkpoint: %w", err))
			w.syncFailed = true
		} else {
			w.synced = n
		}
		w.advanced.Broadcast()
	}
}

// Append journals tr as AppendDelta does, with a delta it analyzes tr
// into itself: for callers that keep no aggregator of their own.
func (w *Writer) Append(lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot) error {
	delta := analysis.NewAggregator(w.service)
	delta.Add(tr)
	return w.AppendDelta(lane, tr, next, res, delta)
}

// AppendDelta journals one completed test: lane ran tr, its next step
// begins at next, res is the lane's resilience-middleware state by agent
// label (nil when the campaign runs without the middleware), and delta is
// the aggregate of tr alone, as analysis.Aggregator.AddDelta leaves it.
// It returns once the frame is written to the file, which is what a
// process kill cannot take back; the syncer fsyncs it later. It waits
// first while maxUnsynced frames are not yet durable.
func (w *Writer) AppendDelta(lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot, delta *analysis.Aggregator) error {
	if w.degraded.Load() != nil {
		return nil // journaling is off; the campaign carries on
	}
	f := w.frame()
	defer w.release(f)
	b, err := w.appendRecord(f.buf[:0], lane, tr, next, res, delta)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding test %d: %w", tr.TestID, err)
	}
	f.buf = b
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.written-w.synced >= maxUnsynced && !w.syncFailed {
		w.advanced.Wait()
	}
	if w.syncFailed {
		return nil // degraded while this lane waited
	}
	n, err := w.log.Write(f.buf)
	if err != nil {
		// A failed write was repaired or poisoned the log; either way no
		// further writes happen at all.
		return w.degrade(fmt.Errorf("checkpoint: %w", err))
	}
	w.written = n
	w.behind.Signal()
	return nil
}

// frame takes a free frame, or makes one when every frame is in use.
func (w *Writer) frame() *frame {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.free); n > 0 {
		f := w.free[n-1]
		w.free = w.free[:n-1]
		return f
	}
	return &frame{}
}

// release returns f to the free frames.
func (w *Writer) release(f *frame) {
	w.mu.Lock()
	w.free = append(w.free, f)
	w.mu.Unlock()
}

// appendRecord appends the frame of one completed test: byte for byte
// what json.Marshal writes for its record, delta being the aggregator
// fed that test alone.
func (w *Writer) appendRecord(b []byte, lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot, delta *analysis.Aggregator) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"lane":`...), int64(lane), 10)
	b = strconv.AppendInt(append(b, `,"test":`...), int64(tr.TestID), 10)
	b, err := jsonappend.Time(append(b, `,"next":`...), next)
	if err != nil {
		return nil, err
	}
	if len(res) > 0 {
		if b, err = jsonappend.Marshal(append(b, `,"resilience":`...), res); err != nil {
			return nil, err
		}
	}
	b = delta.AppendSnapshot(append(b, `,"agg":`...))
	if w.keepTraces {
		if b, err = trace.AppendJSON(append(b, `,"trace":`...), 0, tr); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// degrade records the first storage failure and turns journaling off.
// The campaign continues; only crash-resumability is lost. Always
// returns nil so the engine's Checkpoint callback never aborts a lane
// over journal storage.
func (w *Writer) degrade(err error) error {
	w.degraded.CompareAndSwap(nil, &err)
	return nil
}

// Degraded waits until every frame appended so far is fsynced, or an
// fsync has failed, then reports the storage failure that disabled
// journaling, or nil while the journal is healthy. Callers surface it as
// a campaign warning; a nil return means the journal is durable through
// the last AppendDelta that returned.
func (w *Writer) Degraded() error {
	w.mu.Lock()
	for target := w.written; w.synced < target && !w.syncFailed; {
		w.advanced.Wait()
	}
	w.mu.Unlock()
	if p := w.degraded.Load(); p != nil {
		return *p
	}
	return nil
}

// Close fsyncs what is still unsynced, stops the syncer and releases the
// journal file. The journal stays on disk: a completed campaign's
// journal is simply a resume no-op. A failed final fsync degrades the
// journal like any other.
func (w *Writer) Close() error {
	w.mu.Lock()
	w.closing = true
	w.behind.Signal()
	w.mu.Unlock()
	<-w.stopped
	return w.log.Close()
}
