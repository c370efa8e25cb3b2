// Package checkpoint implements the crash-safe campaign journal: an
// append-only, checksummed JSONL file recording which tests each lane
// has completed, the streaming-analysis state after each of them, and
// (optionally) the completed traces themselves. A campaign killed at any
// instant — including mid-append — resumes from the journal and produces
// byte-identical output to an uninterrupted run.
//
// File format: one JSON object per line, `{"c":<crc32>,"p":{...}}`,
// where c is the IEEE CRC32 of the payload's exact bytes. Payload kinds:
//
//   - meta:  the campaign's identity (service, seed, lanes, counts);
//     written first and on every rotation, checked on resume so a
//     journal is never replayed into a different campaign.
//   - trace: one completed test's full trace (omitted when the campaign
//     discards traces).
//   - lane:  one lane's cumulative progress — the sorted TestIDs it has
//     completed, the virtual instant its next step begins, and its
//     aggregator snapshot.
//
// Crash safety: every append goes trace-then-lane, so a torn write
// leaves either a journal that simply lacks the last test (it re-runs
// on resume; deterministic worlds make the re-run identical) or a
// duplicate trace line (deduplicated on load). Only the final line of a
// journal may be damaged; damage anywhere else is reported as
// corruption, not tolerated. Every rotationEvery appends the journal is
// compacted — rewritten as meta + retained traces + one lane line per
// lane — into a temporary file that atomically replaces the old journal
// via rename, so the journal's size is bounded by campaign state, not
// campaign history, and a crash during rotation loses nothing.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/diskfault"
	"conprobe/internal/resilience"
	"conprobe/internal/trace"
	"conprobe/internal/wal"
)

// DefaultRotateEvery is how many appends separate journal compactions
// when Config.RotateEvery is zero.
const DefaultRotateEvery = 64

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
}

// Matches reports whether two campaign identities agree. Start is
// compared as an instant (a JSON round trip may change its internal
// representation without changing the time it names).
func (m Meta) Matches(other Meta) bool {
	return m.Service == other.Service &&
		m.Seed == other.Seed &&
		m.Lanes == other.Lanes &&
		m.Test1Count == other.Test1Count &&
		m.Test2Count == other.Test2Count &&
		m.AlternateBlocks == other.AlternateBlocks &&
		m.Start.Equal(other.Start)
}

// LaneRecord is one lane's cumulative journaled progress.
type LaneRecord struct {
	// Lane is the lane index.
	Lane int `json:"lane"`
	// Done lists the TestIDs the lane has completed, sorted ascending.
	Done []int `json:"done"`
	// Next is the virtual instant the lane's next schedule step begins
	// (the completed test's gap included); a resumed lane rebuilds its
	// world there.
	Next time.Time `json:"next"`
	// Agg is the lane's aggregator snapshot after folding every Done
	// test, in analysis.Snapshot encoding.
	Agg json.RawMessage `json:"agg"`
	// Resilience maps agent labels to the lane's resilience-middleware
	// state (retry counters, breaker position) after the last Done test.
	// Breaker health legitimately spans tests, so a resumed lane must
	// rewind it to reproduce the uninterrupted run. Absent when the
	// campaign runs without the resilience middleware.
	Resilience map[string]resilience.Snapshot `json:"resilience,omitempty"`
}

type payload struct {
	Kind  string           `json:"kind"`
	Meta  *Meta            `json:"meta,omitempty"`
	Trace *trace.TestTrace `json:"trace,omitempty"`
	Lane  *LaneRecord      `json:"lane,omitempty"`
}

type envelope struct {
	C uint32          `json:"c"`
	P json.RawMessage `json:"p"`
}

func encodeLine(p *payload) ([]byte, error) {
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{C: crc32.ChecksumIEEE(raw), P: raw})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
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
	// Note reports tolerated damage ("dropped truncated final record"),
	// empty for a clean journal.
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

// CompletedTraces returns the journaled traces whose tests some lane
// records as done. A torn tail can leave a trace line without the lane
// record that marks its test complete; such a test re-runs on resume,
// so its orphaned journaled copy must be excluded everywhere.
func (s *State) CompletedTraces() []*trace.TestTrace {
	done := make(map[int]bool)
	for _, lr := range s.Lanes {
		for _, id := range lr.Done {
			done[id] = true
		}
	}
	out := make([]*trace.TestTrace, 0, len(s.Traces))
	for _, tr := range s.Traces {
		if done[tr.TestID] {
			out = append(out, tr)
		}
	}
	return out
}

// Aggregator restores a fresh aggregator from lane's journaled
// snapshot; a lane with no record yields a new empty aggregator for the
// journal's service.
func (s *State) Aggregator(lane int) (*analysis.Aggregator, error) {
	lr := s.Lanes[lane]
	if lr == nil {
		return analysis.NewAggregator(s.Meta.Service), nil
	}
	agg, err := analysis.RestoreAggregator(lr.Agg)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: lane %d: %w", lane, err)
	}
	return agg, nil
}

// Load reads and verifies a journal from the real filesystem. See
// LoadFS.
func Load(path string) (*State, error) { return LoadFS(nil, path) }

// LoadFS reads and verifies a journal. A damaged final line is dropped
// and noted (the classic torn tail of a crash mid-append); damage
// anywhere else is an error positioned by line number. fsys nil means
// the real filesystem.
func LoadFS(fsys diskfault.FS, path string) (*State, error) {
	if fsys == nil {
		fsys = diskfault.OS
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := &State{Lanes: make(map[int]*LaneRecord)}
	var (
		sawMeta bool
		pending error // damage that is fatal unless it was the final line
	)
	br := bufio.NewReader(f)
	for line := 1; ; line++ {
		raw, readErr := br.ReadBytes('\n')
		if len(raw) == 0 && readErr != nil {
			break
		}
		if pending != nil {
			return nil, pending
		}
		if perr := st.apply(raw, line, &sawMeta); perr != nil {
			pending = perr
		}
		if readErr != nil {
			break
		}
	}
	if pending != nil {
		st.Note = fmt.Sprintf("dropped damaged final record (%v)", pending)
	}
	if !sawMeta {
		return nil, fmt.Errorf("checkpoint %s: no meta record; not a campaign journal", path)
	}
	sort.Slice(st.Traces, func(i, j int) bool { return st.Traces[i].TestID < st.Traces[j].TestID })
	return st, nil
}

// apply decodes one journal line into the state.
func (st *State) apply(raw []byte, line int, sawMeta *bool) error {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return fmt.Errorf("checkpoint line %d: %w", line, err)
	}
	if got := crc32.ChecksumIEEE(env.P); got != env.C {
		return fmt.Errorf("checkpoint line %d: checksum mismatch (stored %08x, computed %08x)", line, env.C, got)
	}
	var p payload
	if err := json.Unmarshal(env.P, &p); err != nil {
		return fmt.Errorf("checkpoint line %d: %w", line, err)
	}
	switch p.Kind {
	case "meta":
		if p.Meta == nil {
			return fmt.Errorf("checkpoint line %d: meta record without meta", line)
		}
		st.Meta = *p.Meta
		*sawMeta = true
	case "trace":
		if p.Trace == nil {
			return fmt.Errorf("checkpoint line %d: trace record without trace", line)
		}
		for _, tr := range st.Traces {
			if tr.TestID == p.Trace.TestID {
				return nil // torn append re-ran the test; keep the first copy
			}
		}
		st.Traces = append(st.Traces, p.Trace)
	case "lane":
		if p.Lane == nil {
			return fmt.Errorf("checkpoint line %d: lane record without lane", line)
		}
		st.Lanes[p.Lane.Lane] = p.Lane // cumulative: the last record wins
	default:
		return fmt.Errorf("checkpoint line %d: unknown record kind %q", line, p.Kind)
	}
	return nil
}

// Config parameterizes a journal writer.
type Config struct {
	// KeepTraces journals each completed trace alongside the lane
	// progress, so a resumed campaign's Result carries the full trace
	// set. Disable for DiscardTraces campaigns.
	KeepTraces bool
	// RotateEvery is the number of appends between compactions (default
	// DefaultRotateEvery).
	RotateEvery int
	// FS is the filesystem the journal lives on; nil means the real
	// one. Storage-fault drills pass a diskfault FS.
	FS diskfault.FS
}

// Writer journals a running campaign. It owns its own per-lane
// aggregators (fed on Append), so the engine's streaming analysis and
// the journal can never disagree about a lane's folded state. Append is
// safe for concurrent use across lanes.
//
// A storage failure mid-campaign (ENOSPC, failed fsync, failed
// rotation) DEGRADES the journal instead of aborting the run: Append
// starts returning nil without touching the disk, and Degraded reports
// the failure so the caller can surface a warning. The campaign
// finishes on its own; only crash-resumability is lost — the journal on
// disk stays a valid (if stale) prefix, because every line is
// checksummed and a torn final line is tolerated on load.
type Writer struct {
	path string
	cfg  Config
	meta Meta

	mu       sync.Mutex
	f        diskfault.File
	lanes    map[int]*LaneRecord
	aggs     map[int]*analysis.Aggregator
	traces   []*trace.TestTrace
	appends  int
	degraded error // first storage failure; journaling is off once set
}

// Create starts a fresh journal at path, truncating any previous one,
// and writes the meta record.
func Create(path string, meta Meta, cfg Config) (*Writer, error) {
	if cfg.RotateEvery <= 0 {
		cfg.RotateEvery = DefaultRotateEvery
	}
	w := &Writer{
		path:  path,
		cfg:   cfg,
		meta:  meta,
		lanes: make(map[int]*LaneRecord),
		aggs:  make(map[int]*analysis.Aggregator),
	}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Continue reopens a journal from its loaded state: the writer adopts
// the state's lane progress, restored aggregators and retained traces,
// then immediately compacts, so any tolerated tail damage is gone
// before the resumed campaign appends.
func Continue(path string, st *State, cfg Config) (*Writer, error) {
	if cfg.RotateEvery <= 0 {
		cfg.RotateEvery = DefaultRotateEvery
	}
	w := &Writer{
		path:  path,
		cfg:   cfg,
		meta:  st.Meta,
		lanes: make(map[int]*LaneRecord),
		aggs:  make(map[int]*analysis.Aggregator),
	}
	for lane, lr := range st.Lanes {
		w.lanes[lane] = lr
		agg, err := st.Aggregator(lane)
		if err != nil {
			return nil, err
		}
		w.aggs[lane] = agg
	}
	if cfg.KeepTraces {
		w.traces = append(w.traces, st.CompletedTraces()...)
	}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// Append journals one completed test: lane ran tr, its next step begins
// at next, and res is the lane's resilience-middleware state by agent
// label (nil when the campaign runs without the middleware).
func (w *Writer) Append(lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.degraded != nil {
		return nil // journaling is off; the campaign carries on
	}
	agg := w.aggs[lane]
	if agg == nil {
		agg = analysis.NewAggregator(w.meta.Service)
		w.aggs[lane] = agg
	}
	agg.Add(tr)
	snap, err := agg.Snapshot()
	if err != nil {
		return fmt.Errorf("checkpoint: lane %d snapshot: %w", lane, err)
	}
	lr := w.lanes[lane]
	if lr == nil {
		lr = &LaneRecord{Lane: lane}
		w.lanes[lane] = lr
	}
	lr.Done = append(lr.Done, tr.TestID)
	sort.Ints(lr.Done)
	lr.Next = next
	lr.Agg = snap
	lr.Resilience = res

	w.appends++
	if w.appends%w.cfg.RotateEvery == 0 {
		if w.cfg.KeepTraces {
			w.traces = append(w.traces, tr)
		}
		if err := w.rotate(); err != nil {
			return w.degrade(err)
		}
		return nil
	}
	var lines []byte
	if w.cfg.KeepTraces {
		w.traces = append(w.traces, tr)
		line, err := encodeLine(&payload{Kind: "trace", Trace: tr})
		if err != nil {
			return fmt.Errorf("checkpoint: encoding trace %d: %w", tr.TestID, err)
		}
		lines = append(lines, line...)
	}
	line, err := encodeLine(&payload{Kind: "lane", Lane: lr})
	if err != nil {
		return fmt.Errorf("checkpoint: encoding lane %d: %w", lane, err)
	}
	lines = append(lines, line...)
	if _, err := w.f.Write(lines); err != nil {
		return w.degrade(fmt.Errorf("checkpoint: appending to %s: %w", w.path, err))
	}
	if err := w.f.Sync(); err != nil {
		// A failed fsync may have dropped the dirty pages (fsyncgate), so
		// nothing later on this handle can be trusted durable either —
		// which degrading guarantees: no further writes happen at all.
		return w.degrade(fmt.Errorf("checkpoint: syncing %s: %w", w.path, err))
	}
	return nil
}

// degrade records the first storage failure and turns journaling off.
// The campaign continues; only crash-resumability is lost. Always
// returns nil so the engine's Checkpoint callback never aborts a lane
// over journal storage.
func (w *Writer) degrade(err error) error {
	if w.degraded == nil {
		w.degraded = err
	}
	return nil
}

// Degraded reports the storage failure that disabled journaling, or
// nil while the journal is healthy. Callers surface it as a campaign
// warning.
func (w *Writer) Degraded() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.degraded
}

// rotate compacts the journal: meta, retained traces and the current
// lane records atomically replace it (wal.ReplaceFileFS: O_EXCL temp,
// fsync, rename, directory fsync).
func (w *Writer) rotate() error {
	fsys := w.cfg.FS
	if fsys == nil {
		fsys = diskfault.OS
	}
	err := wal.ReplaceFileFS(fsys, w.path, 0, func(tmp io.Writer) error {
		bw := bufio.NewWriter(tmp)
		write := func(p *payload) error {
			line, err := encodeLine(p)
			if err != nil {
				return err
			}
			_, err = bw.Write(line)
			return err
		}
		if err := write(&payload{Kind: "meta", Meta: &w.meta}); err != nil {
			return err
		}
		for _, tr := range w.traces {
			if err := write(&payload{Kind: "trace", Trace: tr}); err != nil {
				return err
			}
		}
		lanes := make([]int, 0, len(w.lanes))
		for lane := range w.lanes {
			lanes = append(lanes, lane)
		}
		sort.Ints(lanes)
		for _, lane := range lanes {
			if err := write(&payload{Kind: "lane", Lane: w.lanes[lane]}); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
	if err != nil {
		return fmt.Errorf("checkpoint: rotating %s: %w", w.path, err)
	}
	old := w.f
	w.f, err = fsys.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: reopening %s: %w", w.path, err)
	}
	if old != nil {
		old.Close()
	}
	return nil
}

// Close releases the journal file. The journal stays on disk: a
// completed campaign's journal is simply a resume no-op.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
