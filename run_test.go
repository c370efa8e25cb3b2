package conprobe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"conprobe"
	"conprobe/internal/trace"
)

func runOpts(par int) conprobe.Options {
	return conprobe.Options{
		Workload: conprobe.Workload{
			Service:    conprobe.ServiceFBGroup,
			Test1Count: 4,
			Test2Count: 4,
			Seed:       11,
		},
		Engine: conprobe.Engine{
			Lanes:       4,
			Parallelism: par,
		},
	}
}

// runJSONL renders a campaign's traces as the canonical JSONL stream.
func runJSONL(t *testing.T, res *conprobe.RunResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := conprobe.NewTraceWriter(&buf)
	for _, tr := range res.Traces {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunDeterministicAcrossParallelism pins the API's core contract:
// for a fixed Seed and Lanes, the sorted trace output is byte-identical
// at parallelism 1 and 8.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	res1, err := conprobe.Run(context.Background(), runOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	res8, err := conprobe.Run(context.Background(), runOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runJSONL(t, res1), runJSONL(t, res8)) {
		t.Fatal("parallelism 1 and 8 produced different trace streams")
	}
}

// TestCampaignTracesEncodeIdentically holds the trace encoder to
// encoding/json on what campaigns actually record: every trace of every
// built-in profile (16 + 16 tests each, the benchmark's campaign_sim
// shape with traces kept) encodes to the same bytes through
// trace.AppendJSON and json.Marshal, and the JSONL writer's stream is
// the one json.Encoder wrote for the versioned envelope.
func TestCampaignTracesEncodeIdentically(t *testing.T) {
	type versionedLine struct {
		Version int `json:"v,omitempty"`
		*conprobe.TestTrace
	}
	for _, name := range conprobe.ProfileNames() {
		res, err := conprobe.Run(context.Background(), conprobe.Options{
			Workload: conprobe.Workload{Service: name, Test1Count: 16, Test2Count: 16, Seed: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Traces) != 32 {
			t.Fatalf("%s: campaign kept %d traces, want 32", name, len(res.Traces))
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, tr := range res.Traces {
			marshalled, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			appended, err := trace.AppendJSON(nil, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(appended, marshalled) {
				t.Fatalf("%s test %d:\n got %s\nwant %s", name, tr.TestID, appended, marshalled)
			}
			if err := enc.Encode(versionedLine{Version: trace.SchemaVersion, TestTrace: tr}); err != nil {
				t.Fatal(err)
			}
		}
		if got := runJSONL(t, res); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: the JSONL writer's stream differs from json.Encoder's", name)
		}
	}
}

func TestRunStreamingReport(t *testing.T) {
	opts := runOpts(2)
	opts.Engine.DiscardTraces = true
	streamed := 0
	opts.Engine.OnTrace = func(tr *conprobe.TestTrace) error { streamed++; return nil }
	res, err := conprobe.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 0 {
		t.Fatalf("DiscardTraces retained %d traces", len(res.Traces))
	}
	if streamed != 8 {
		t.Fatalf("streamed %d traces, want 8", streamed)
	}
	// The report was aggregated while streaming, without the trace set.
	if res.Report == nil {
		t.Fatal("no report")
	}
	if got := res.Report.Test1Count + res.Report.Test2Count; got != 8 {
		t.Fatalf("report covers %d tests, want 8", got)
	}
}

// TestRunReportMatchesAnalyze checks the streamed per-lane aggregation
// agrees with the batch analyzer on the same traces.
func TestRunReportMatchesAnalyze(t *testing.T) {
	res, err := conprobe.Run(context.Background(), runOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	batch := conprobe.Analyze(res.Service, res.Traces)
	if res.Report.Test1Count != batch.Test1Count || res.Report.Test2Count != batch.Test2Count ||
		res.Report.TotalReads != batch.TotalReads || res.Report.TotalWrites != batch.TotalWrites {
		t.Fatalf("totals differ: streamed %+v, batch %+v", res.Report, batch)
	}
	for _, a := range conprobe.AllAnomalies() {
		s, b := res.Report.Session[a], batch.Session[a]
		if (s == nil) != (b == nil) {
			t.Fatalf("%v: presence differs", a)
		}
		if s != nil && (s.TestsWithAnomaly != b.TestsWithAnomaly || s.Prevalence() != b.Prevalence()) {
			t.Fatalf("%v: streamed %+v, batch %+v", a, s, b)
		}
		sd, bd := res.Report.Divergence[a], batch.Divergence[a]
		if (sd == nil) != (bd == nil) {
			t.Fatalf("%v: divergence presence differs", a)
		}
		if sd != nil && sd.TestsWithAnomaly != bd.TestsWithAnomaly {
			t.Fatalf("%v: streamed %+v, batch %+v", a, sd, bd)
		}
	}
}

func TestRunCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := runOpts(2)
	opts.Engine.OnTrace = func(tr *conprobe.TestTrace) error { cancel(); return nil }
	res, err := conprobe.Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.CampaignResult == nil {
		t.Fatal("cancelled run dropped its partial result")
	}
	if len(res.Traces) == 0 || len(res.Traces) >= 8 {
		t.Fatalf("partial traces = %d", len(res.Traces))
	}
	// The report still covers exactly the collected traces.
	if res.Report == nil || res.Report.Test1Count+res.Report.Test2Count != len(res.Traces) {
		t.Fatalf("report/traces mismatch: %v vs %d", res.Report, len(res.Traces))
	}
}

// TestRunSingleLane pins the degenerate partition: one lane is one
// sequential virtual world, and the campaign still completes.
func TestRunSingleLane(t *testing.T) {
	res, err := conprobe.Run(context.Background(), conprobe.Options{
		Workload: conprobe.Workload{
			Service:    conprobe.ServiceBlogger,
			Test1Count: 1,
			Test2Count: 1,
			Seed:       3,
		},
		Engine: conprobe.Engine{Lanes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
}
