package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/probe"
	"conprobe/internal/resilience"
	"conprobe/internal/trace"
	"conprobe/internal/wal"
)

var testMeta = Meta{
	Service:    "fbfeed",
	Seed:       11,
	Lanes:      2,
	Test1Count: 4,
	Test2Count: 4,
	Start:      time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
}

// campaignTraces runs one small campaign for journal tests.
func campaignTraces(t *testing.T) []*trace.TestTrace {
	t.Helper()
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    "fbfeed",
			Test1Count: 4,
			Test2Count: 4,
			Seed:       11,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Traces
}

// journalCampaign appends traces round-robin across two lanes.
func journalCampaign(t *testing.T, path string, traces []*trace.TestTrace, cfg Config) {
	t.Helper()
	w, err := Create(path, testMeta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := testMeta.Start
	for i, tr := range traces {
		if err := w.Append(i%2, tr, base.Add(time.Duration(i+1)*time.Minute), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// foldLanes is the state a journal must load to after traces were
// appended round-robin across lanes the way journalCampaign does: each
// lane's Done in append order, its aggregator fed the lane's traces
// directly, and the Next of its last append.
func foldLanes(t *testing.T, traces []*trace.TestTrace, lanes int) map[int]*LaneRecord {
	t.Helper()
	want := make(map[int]*LaneRecord)
	aggs := make(map[int]*analysis.Aggregator)
	for i, tr := range traces {
		lane := i % lanes
		if want[lane] == nil {
			want[lane] = &LaneRecord{Lane: lane}
			aggs[lane] = analysis.NewAggregator(testMeta.Service)
		}
		aggs[lane].Add(tr)
		want[lane].Done = append(want[lane].Done, tr.TestID)
		want[lane].Next = testMeta.Start.Add(time.Duration(i+1) * time.Minute)
	}
	for lane, agg := range aggs {
		want[lane].Agg = agg
	}
	return want
}

func checkLanes(t *testing.T, label string, got *State, want map[int]*LaneRecord) {
	t.Helper()
	if len(got.Lanes) != len(want) {
		t.Fatalf("%s: journal has %d lanes, want %d", label, len(got.Lanes), len(want))
	}
	for lane, w := range want {
		g := got.Lanes[lane]
		if g == nil {
			t.Fatalf("%s: lane %d missing", label, lane)
		}
		if !slices.Equal(g.Done, w.Done) {
			t.Fatalf("%s: lane %d done = %v, want %v", label, lane, g.Done, w.Done)
		}
		if !bytes.Equal(g.Agg.AppendSnapshot(nil), w.Agg.AppendSnapshot(nil)) {
			t.Fatalf("%s: lane %d aggregator differs from a direct fold of its tests", label, lane)
		}
		if !g.Next.Equal(w.Next) {
			t.Fatalf("%s: lane %d next = %v, want %v", label, lane, g.Next, w.Next)
		}
	}
}

// frameEnds returns the byte offset at which each frame of a journal
// ends (frame 0 is the meta).
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(data); {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	if len(ends) == 0 || ends[len(ends)-1] != len(data) {
		t.Fatalf("journal of %d bytes does not end on a frame boundary (%v)", len(data), ends)
	}
	return ends
}

// TestMetaMatchesInstants: Start is one instant whatever zone or
// monotonic reading carries it, and every other field must agree.
func TestMetaMatchesInstants(t *testing.T) {
	zoned := testMeta
	zoned.Start = testMeta.Start.In(time.FixedZone("UTC+9", 9*3600))
	now := testMeta
	now.Start = time.Now()
	stripped := now
	stripped.Start = now.Start.Round(0)
	if !testMeta.Matches(zoned) || !now.Matches(stripped) {
		t.Fatal("the same Start instant in another representation did not match")
	}
	rotated := testMeta
	rotated.Rotate = 1
	if testMeta.Matches(rotated) {
		t.Fatal("metas differing in Rotate matched")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	traces := campaignTraces(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	journalCampaign(t, path, traces, Config{KeepTraces: true})

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Note != "" {
		t.Errorf("clean journal has note %q", st.Note)
	}
	if st.Meta != testMeta {
		t.Errorf("meta = %+v, want %+v", st.Meta, testMeta)
	}
	if len(st.Traces) != len(traces) {
		t.Fatalf("journal kept %d traces, want %d", len(st.Traces), len(traces))
	}
	for lane := 0; lane < 2; lane++ {
		done := st.Done(lane)
		for i, tr := range traces {
			if want := i%2 == lane; done[tr.TestID] != want {
				t.Errorf("lane %d done[%d] = %v, want %v", lane, tr.TestID, done[tr.TestID], want)
			}
		}
		// The journaled aggregator must equal one fed the lane's traces
		// directly.
		direct := analysis.NewAggregator(testMeta.Service)
		for i, tr := range traces {
			if i%2 == lane {
				direct.Add(tr)
			}
		}
		if !bytes.Equal(st.Lanes[lane].Agg.AppendSnapshot(nil), direct.AppendSnapshot(nil)) {
			t.Errorf("lane %d journaled aggregator differs from direct fold", lane)
		}
	}
	lastLane := (len(traces) - 1) % 2
	wantNext := testMeta.Start.Add(time.Duration(len(traces)) * time.Minute)
	if !st.Lanes[lastLane].Next.Equal(wantNext) {
		t.Errorf("lane %d next = %v, want %v", lastLane, st.Lanes[lastLane].Next, wantNext)
	}
}

// TestJournalResilienceRoundTrip checks per-lane resilience snapshots
// ride the journal: the latest lane record's map comes back from Load
// exactly as appended, and lanes journaled without one stay nil.
func TestJournalResilienceRoundTrip(t *testing.T) {
	traces := campaignTraces(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	w, err := Create(path, testMeta, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := map[string]resilience.Snapshot{
		"agent1": {
			Stats: resilience.Stats{Ops: 7, Retries: 2, Failures: 1, BreakerTrips: 1},
			Breaker: &resilience.BreakerSnapshot{
				State:      "open",
				ConsecFail: 3,
				OpenUntil:  testMeta.Start.Add(90 * time.Second),
				Trips:      1,
			},
		},
		"agent2": {Stats: resilience.Stats{Ops: 4}},
	}
	base := testMeta.Start
	for i, tr := range traces {
		var snap map[string]resilience.Snapshot
		if i%2 == 0 {
			snap = res // lane 0 journals middleware state, lane 1 does not
		}
		if err := w.Append(i%2, tr, base.Add(time.Duration(i+1)*time.Minute), snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got := st.Lanes[0].Resilience
	if len(got) != 2 {
		t.Fatalf("lane 0 resilience has %d agents, want 2", len(got))
	}
	if got["agent1"].Stats != res["agent1"].Stats {
		t.Errorf("agent1 stats = %+v, want %+v", got["agent1"].Stats, res["agent1"].Stats)
	}
	gb, wb := got["agent1"].Breaker, res["agent1"].Breaker
	if gb == nil || gb.State != wb.State || gb.ConsecFail != wb.ConsecFail ||
		!gb.OpenUntil.Equal(wb.OpenUntil) || gb.Trips != wb.Trips {
		t.Errorf("agent1 breaker = %+v, want %+v", gb, wb)
	}
	if got["agent2"].Breaker != nil {
		t.Errorf("agent2 grew a breaker snapshot: %+v", got["agent2"].Breaker)
	}
	if st.Lanes[1].Resilience != nil {
		t.Errorf("lane 1 journaled resilience it never reported: %+v", st.Lanes[1].Resilience)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	traces := campaignTraces(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	journalCampaign(t, path, traces, Config{KeepTraces: true})

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-25], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if st.Note == "" {
		t.Error("torn tail left no note")
	}
	// The torn frame was the last test's, so that test must now be absent
	// from its lane's Done set and from the traces (it re-runs on resume).
	last := traces[len(traces)-1]
	if st.Done((len(traces) - 1) % 2)[last.TestID] {
		t.Error("torn frame still marks its test done")
	}
	if len(st.CompletedTraces()) != len(traces)-1 {
		t.Errorf("torn journal kept %d traces, want %d", len(st.CompletedTraces()), len(traces)-1)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	traces := campaignTraces(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	journalCampaign(t, path, traces, Config{KeepTraces: true})

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the third frame's payload.
	ends := frameEnds(t, data)
	start := ends[1]
	data[(start+8+ends[2])/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	var ce *wal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption: err = %v, want a *wal.CorruptError", err)
	}
	if ce.Offset != int64(start) {
		t.Errorf("error %q does not position the damage at the third frame (byte offset %d)", err, start)
	}
}

func TestJournalContinue(t *testing.T) {
	traces := campaignTraces(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	half := len(traces) / 2

	w, err := Create(path, testMeta, Config{KeepTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	base := testMeta.Start
	for i, tr := range traces[:half] {
		if err := w.Append(i%2, tr, base.Add(time.Duration(i+1)*time.Minute), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Continue(path, st, Config{KeepTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(traces); i++ {
		if err := w2.Append(i%2, traces[i], base.Add(time.Duration(i+1)*time.Minute), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// The continued journal must be byte-identical in content to one
	// written in a single run (compare decoded state via fresh loads).
	whole := filepath.Join(t.TempDir(), "whole.ckpt")
	journalCampaign(t, whole, traces, Config{KeepTraces: true})
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Load(whole)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != len(want.Traces) {
		t.Fatalf("continued journal has %d traces, want %d", len(got.Traces), len(want.Traces))
	}
	for lane := 0; lane < 2; lane++ {
		ga, wa := got.Lanes[lane], want.Lanes[lane]
		if !bytes.Equal(ga.Agg.AppendSnapshot(nil), wa.Agg.AppendSnapshot(nil)) {
			t.Errorf("lane %d aggregator snapshots differ between continued and single-run journals", lane)
		}
		if !ga.Next.Equal(wa.Next) {
			t.Errorf("lane %d next differs: %v vs %v", lane, ga.Next, wa.Next)
		}
	}
}

func TestLoadRejectsNonJournal(t *testing.T) {
	for name, tc := range map[string]struct{ content, want string }{
		"text":  {"hello\nworld\n", "corrupt record at byte offset 0"},
		"empty": {"", "no meta record"},
		// The first line of a journal from the CRC-JSONL era.
		"old format": {`{"c":2774771327,"p":{"kind":"meta","meta":{"service":"fbfeed","seed":11}}}` + "\n",
			"written by an older build; re-run the campaign"},
	} {
		path := filepath.Join(t.TempDir(), "not-a-journal")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil {
			t.Fatalf("%s file accepted as journal", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s file: error %q does not say %q", name, err, tc.want)
		}
	}
}

// TestAppendConcurrentLanes pins the engine's contract with the Writer:
// different lanes append concurrently through one Writer with no lock
// of its own, and the journal still loads to each lane's sequential
// fold. Run under -race.
func TestAppendConcurrentLanes(t *testing.T) {
	const lanes = 8
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    "fbfeed",
			Test1Count: 16,
			Test2Count: 16,
			Seed:       11,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := res.Traces
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	w, err := Create(path, testMeta, Config{KeepTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(traces); i += lanes {
				if err := w.Append(lane, traces[i], testMeta.Start.Add(time.Duration(i+1)*time.Minute), nil); err != nil {
					t.Error(err)
				}
			}
		}(lane)
	}
	wg.Wait()
	if err := w.Degraded(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	checkLanes(t, "concurrent", st, foldLanes(t, traces, lanes))
	got := st.CompletedTraces()
	if len(got) != len(traces) {
		t.Fatalf("journal kept %d traces, want %d", len(got), len(traces))
	}
	for i, tr := range got {
		if tr.TestID != traces[i].TestID {
			t.Fatalf("trace %d is test %d, want %d (sorted by TestID)", i, tr.TestID, traces[i].TestID)
		}
	}
}
