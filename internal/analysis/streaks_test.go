package analysis

import (
	"context"
	"testing"

	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// mrTrace builds a Test 2 trace that violates monotonic reads iff bad.
func mrTrace(id int, bad bool) *trace.TestTrace {
	reads := []trace.Read{rd(1, 0, "m1"), rd(2, 0, "m1")}
	if bad {
		reads = append(reads, rd(1, 100))
	} else {
		reads = append(reads, rd(1, 100, "m1"))
	}
	return &trace.TestTrace{
		TestID: id, Kind: trace.Test2, Service: "svc", Agents: 2, Reads: reads,
	}
}

func TestDetectStreaksFindsMaximalRuns(t *testing.T) {
	var traces []*trace.TestTrace
	// Pattern over ids 1..10: bad at 2,3,4 and 7 and 9,10.
	badIDs := map[int]bool{2: true, 3: true, 4: true, 7: true, 9: true, 10: true}
	for id := 1; id <= 10; id++ {
		traces = append(traces, mrTrace(id, badIDs[id]))
	}
	streaks := DetectStreaks(traces, core.MonotonicReads, 1)
	if len(streaks) != 3 {
		t.Fatalf("streaks = %+v", streaks)
	}
	if streaks[0].FirstID != 2 || streaks[0].LastID != 4 || streaks[0].Length != 3 {
		t.Fatalf("first streak = %+v", streaks[0])
	}
	if streaks[1].FirstID != 7 || streaks[1].Length != 1 {
		t.Fatalf("second streak = %+v", streaks[1])
	}
	if streaks[2].FirstID != 9 || streaks[2].LastID != 10 {
		t.Fatalf("third streak = %+v", streaks[2])
	}
	if len(streaks[0].Agents) != 1 || streaks[0].Agents[0] != 1 {
		t.Fatalf("streak agents = %v", streaks[0].Agents)
	}
}

func TestDetectStreaksMinLenFilters(t *testing.T) {
	var traces []*trace.TestTrace
	badIDs := map[int]bool{2: true, 3: true, 4: true, 7: true}
	for id := 1; id <= 8; id++ {
		traces = append(traces, mrTrace(id, badIDs[id]))
	}
	streaks := DetectStreaks(traces, core.MonotonicReads, 2)
	if len(streaks) != 1 || streaks[0].Length != 3 {
		t.Fatalf("streaks = %+v", streaks)
	}
	// Zero/negative minLen behaves like 1.
	if got := DetectStreaks(traces, core.MonotonicReads, 0); len(got) != 2 {
		t.Fatalf("minLen 0 streaks = %+v", got)
	}
}

func TestDetectStreaksSeparatesKinds(t *testing.T) {
	t1 := mrTrace(1, true)
	t1.Kind = trace.Test1
	t2 := mrTrace(2, true)
	streaks := DetectStreaks([]*trace.TestTrace{t1, t2}, core.MonotonicReads, 1)
	if len(streaks) != 2 {
		t.Fatalf("kinds must not join: %+v", streaks)
	}
}

func TestDetectStreaksEmpty(t *testing.T) {
	if got := DetectStreaks(nil, core.MonotonicReads, 1); len(got) != 0 {
		t.Fatalf("streaks = %+v", got)
	}
}

// TestDetectStreaksFindsInjectedTokyoFault runs the FBGroup campaign
// with its fault window and recovers the paper's observation: the
// content divergences form one contiguous streak involving the Tokyo
// agent.
func TestDetectStreaksFindsInjectedTokyoFault(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameFBGroup,
			Test2Count: 30, // fault window covers tests 15..23
			Seed:       5,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	streaks := DetectStreaks(res.Traces, core.ContentDivergence, 3)
	if len(streaks) != 1 {
		t.Fatalf("expected one long streak, got %+v", streaks)
	}
	s := streaks[0]
	if s.Length < 8 || s.Length > 10 {
		t.Fatalf("streak length = %d, want ≈9", s.Length)
	}
	// Tokyo (agent 2) must be involved in every fault-window divergence.
	found := false
	for _, ag := range s.Agents {
		if ag == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Tokyo not implicated: %+v", s)
	}
}

func TestViolationsOfCoversEveryAnomaly(t *testing.T) {
	// One trace exhibiting each anomaly class; both offline views must
	// route each to its checker.
	w3 := wr("m3", 2, 1, 300)
	w3.Trigger = "m2"
	tr := &trace.TestTrace{
		TestID: 1, Kind: trace.Test1, Service: "svc", Agents: 2,
		Writes: []trace.Write{wr("m1", 1, 1, 0), wr("m2", 1, 2, 60), w3},
		Reads: []trace.Read{
			rd(1, 200, "m2", "m1"), // RYW fine, MW reversal
			rd(1, 300),             // MR disappearance + RYW
			rd(2, 400, "m3"),       // WFR
			rd(2, 500, "m1"),       // content divergence with agent1's (m3) view? and order
			rd(1, 600, "m1", "m2"),
			rd(2, 700, "m2", "m1"),
		},
	}
	traces := []*trace.TestTrace{tr}
	for _, a := range core.AllAnomalies() {
		if got := DetectStreaks(traces, a, 1); len(got) != 1 {
			t.Errorf("DetectStreaks(%v) found %d streaks, want 1", a, len(got))
		}
		if got := TimeSeries(traces, a, trace.Test1, 1); len(got) != 1 || got[0].WithAnomaly != 1 {
			t.Errorf("TimeSeries(%v) = %+v, want one block with the anomaly", a, got)
		}
	}
	if got := DetectStreaks(traces, core.Anomaly(42), 1); got != nil {
		t.Errorf("unknown anomaly yields %+v, want nothing", got)
	}
}

func TestTimeSeriesBlocks(t *testing.T) {
	var traces []*trace.TestTrace
	badIDs := map[int]bool{1: true, 2: true, 7: true}
	for id := 1; id <= 9; id++ {
		traces = append(traces, mrTrace(id, badIDs[id]))
	}
	ts := TimeSeries(traces, core.MonotonicReads, trace.Test2, 3)
	if len(ts) != 3 {
		t.Fatalf("blocks = %+v", ts)
	}
	if ts[0].WithAnomaly != 2 || ts[0].Rate() < 66 || ts[0].Rate() > 67 {
		t.Fatalf("block0 = %+v", ts[0])
	}
	if ts[1].WithAnomaly != 0 || ts[2].WithAnomaly != 1 {
		t.Fatalf("blocks = %+v %+v", ts[1], ts[2])
	}
	if ts[2].FirstID != 7 || ts[2].LastID != 9 || ts[2].Tests != 3 {
		t.Fatalf("block2 bounds = %+v", ts[2])
	}
	// Wrong kind: nothing.
	if got := TimeSeries(traces, core.MonotonicReads, trace.Test1, 3); len(got) != 0 {
		t.Fatalf("kind filter failed: %+v", got)
	}
	// Degenerate block size behaves as 1.
	if got := TimeSeries(traces, core.MonotonicReads, trace.Test2, 0); len(got) != 9 {
		t.Fatalf("blockSize 0: %d blocks", len(got))
	}
	var zero BlockRate
	if zero.Rate() != 0 {
		t.Fatal("empty block rate")
	}
}

func TestTimeSeriesSpotsFaultWindow(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameFBGroup,
			Test2Count: 30,
			Seed:       5,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := TimeSeries(res.Traces, core.ContentDivergence, trace.Test2, 5)
	// Blocks covering tests 16-25 (fault window) must spike; edges stay
	// near zero.
	if ts[0].WithAnomaly != 0 {
		t.Fatalf("pre-fault block diverged: %+v", ts[0])
	}
	spike := false
	for _, b := range ts {
		if b.Rate() >= 80 {
			spike = true
		}
	}
	if !spike {
		t.Fatalf("fault window not visible in time series: %+v", ts)
	}
}
