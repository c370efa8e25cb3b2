package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/resilience"
	"conprobe/internal/trace"
	"conprobe/internal/wal"
)

// TestJournalFrameMatchesMarshal: the frame Append assembles is, byte
// for byte, json.Marshal of the record Load decodes it into — with and
// without the trace, with the resilience map nil, empty and populated.
func TestJournalFrameMatchesMarshal(t *testing.T) {
	traces := campaignTraces(t)
	populated := map[string]resilience.Snapshot{
		"agent<1>": {
			Stats: resilience.Stats{Ops: 7, Retries: 2, Failures: 1, BreakerTrips: 1},
			Breaker: &resilience.BreakerSnapshot{
				State: "open", ConsecFail: 3, OpenUntil: testMeta.Start.Add(90 * time.Second), Trips: 1,
			},
		},
		"agent2": {Stats: resilience.Stats{Ops: 4}},
	}
	for _, keep := range []bool{false, true} {
		for name, res := range map[string]map[string]resilience.Snapshot{
			"nil": nil, "empty": {}, "populated": populated,
		} {
			t.Run(fmt.Sprintf("keep=%v/resilience=%s", keep, name), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "campaign.ckpt")
				w, err := Create(path, testMeta, Config{KeepTraces: keep})
				if err != nil {
					t.Fatal(err)
				}
				next := func(i int) time.Time {
					// Every other lane instant is in a zone the in-place
					// timestamp path does not take.
					at := testMeta.Start.Add(time.Duration(i+1) * time.Minute)
					if i%2 == 1 {
						at = at.In(time.FixedZone("", 9*3600))
					}
					return at
				}
				for i, tr := range traces {
					if err := w.Append(i%2, tr, next(i), res); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				rep, err := wal.ReadFS(nil, path)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Records) != 1+len(traces) {
					t.Fatalf("journal holds %d frames, want %d", len(rep.Records), 1+len(traces))
				}
				for i, tr := range traces {
					delta := analysis.NewAggregator(testMeta.Service)
					delta.Add(tr)
					snap, err := delta.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					rec := record{Lane: i % 2, Test: tr.TestID, Next: next(i), Resilience: res, Agg: snap}
					if keep {
						rec.Trace = tr
					}
					want, err := json.Marshal(&rec)
					if err != nil {
						t.Fatal(err)
					}
					if got := rep.Records[1+i]; !bytes.Equal(got, want) {
						t.Fatalf("frame %d:\n got %s\nwant %s", 1+i, got, want)
					}
				}
			})
		}
	}
}

// TestAppendRefusesWhatMarshalRefuses: a trace json.Marshal cannot
// encode is an error from Append, not a damaged or missing-field frame,
// and the journal stays usable.
func TestAppendRefusesWhatMarshalRefuses(t *testing.T) {
	traces := campaignTraces(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	w, err := Create(path, testMeta, Config{KeepTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := *traces[0]
	bad.Started = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := w.Append(0, &bad, testMeta.Start, nil); err == nil {
		t.Fatal("a trace starting in year 10000 was journaled")
	}
	if err := w.Append(0, traces[0], time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), nil); err == nil {
		t.Fatal("a lane instant in year -1 was journaled")
	}
	if err := w.Append(0, traces[0], testMeta.Start, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Lanes[0].Done; len(got) != 1 || got[0] != traces[0].TestID {
		t.Fatalf("journal lists tests %v, want only %d", got, traces[0].TestID)
	}
}

// TestCheckpointAppendEncodingDoesNotAllocatePerRead: journaling a test
// whose lane has already analyzed it allocates nothing once warm, for a
// Test 2 and for one of three times the reads — the frame is encoded into
// a buffer the Writer keeps, without an object per read or per timestamp,
// and no checker runs.
func TestCheckpointAppendEncodingDoesNotAllocatePerRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var small *trace.TestTrace
	for _, tr := range campaignTraces(t) {
		if tr.Kind == trace.Test2 {
			small = tr
			break
		}
	}
	big := *small
	big.Reads = append(append(append([]trace.Read(nil), small.Reads...), small.Reads...), small.Reads...)

	w, err := Create(filepath.Join(t.TempDir(), "campaign.ckpt"), testMeta, Config{KeepTraces: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tr := range []*trace.TestTrace{small, &big} {
		delta := analysis.NewAggregator(testMeta.Service)
		analysis.NewAggregator(testMeta.Service).AddDelta(tr, delta)
		appendIt := func() {
			if err := w.AppendDelta(0, tr, testMeta.Start, nil, delta); err != nil {
				t.Fatal(err)
			}
		}
		appendIt() // grows the free frame and the log's own buffer to this trace's size
		if n := testing.AllocsPerRun(10, appendIt); n != 0 {
			t.Errorf("AppendDelta of %d reads allocates %v objects, want 0", len(tr.Reads), n)
		}
	}
	if err := w.Degraded(); err != nil {
		t.Fatal(err)
	}
}
