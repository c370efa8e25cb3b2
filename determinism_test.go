package conprobe_test

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"conprobe"
)

// metricsOpts is the determinism campaign: a fixed partition (Lanes=8)
// probed at varying parallelism with the full telemetry stack enabled.
func metricsOpts(par int, sc *conprobe.MetricsScope) conprobe.Options {
	return conprobe.Options{
		Workload: conprobe.Workload{
			Service:    conprobe.ServiceFBFeed,
			Test1Count: 6,
			Test2Count: 6,
			Seed:       42,
		},
		Engine: conprobe.Engine{
			Lanes:       8,
			Parallelism: par,
		},
		Telemetry: conprobe.Telemetry{Metrics: sc},
	}
}

// renderRun serializes a campaign the two ways an operator consumes it:
// the merged JSONL trace stream and the rendered text report.
func renderRun(t *testing.T, res *conprobe.RunResult) (traces, report []byte) {
	t.Helper()
	var tb bytes.Buffer
	w := conprobe.NewTraceWriter(&tb)
	for _, tr := range res.Traces {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var rb bytes.Buffer
	if err := conprobe.WriteReport(&rb, res.Report); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), rb.Bytes()
}

// TestRunDeterminismWithMetricsEnabled pins the observability layer's
// core contract: instrumenting a campaign must not perturb it. For a
// fixed Seed and Lanes, both the merged JSONL trace stream and the
// final rendered Report are byte-identical at parallelism 1, 2 and 8,
// with a live metrics registry attached to every layer.
func TestRunDeterminismWithMetricsEnabled(t *testing.T) {
	var wantTraces, wantReport []byte
	for _, par := range []int{1, 2, 8} {
		reg := conprobe.NewMetricsRegistry()
		res, err := conprobe.Run(context.Background(), metricsOpts(par, reg.Scope("conprobe")))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		traces, report := renderRun(t, res)
		if wantTraces == nil {
			wantTraces, wantReport = traces, report
			continue
		}
		if !bytes.Equal(traces, wantTraces) {
			t.Errorf("parallelism %d: trace stream differs from parallelism 1", par)
		}
		if !bytes.Equal(report, wantReport) {
			t.Errorf("parallelism %d: rendered report differs from parallelism 1", par)
		}
	}
}

// TestRunEngineStats verifies the snapshot returned alongside the
// campaign: per-lane engine counters exist, cover every lane, and sum
// to the campaign's test count regardless of parallelism.
func TestRunEngineStats(t *testing.T) {
	reg := conprobe.NewMetricsRegistry()
	res, err := conprobe.Run(context.Background(), metricsOpts(2, reg.Scope("conprobe")))
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineStats == nil {
		t.Fatal("no EngineStats with a Metrics scope set")
	}
	started, lanes := 0.0, 0
	for _, p := range res.EngineStats {
		if strings.HasPrefix(p.Name, "conprobe_engine_tests_started_total{") {
			started += p.Value
			lanes++
		}
	}
	if lanes != 8 {
		t.Errorf("tests_started_total covers %d lanes, want 8", lanes)
	}
	if started != 12 {
		t.Errorf("tests_started_total sums to %v, want 12", started)
	}
	// The snapshot is the registry's: the two must agree series for
	// series.
	var a, b bytes.Buffer
	if err := res.EngineStats.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("EngineStats disagrees with a direct registry snapshot")
	}
}

// TestRunEngineStatsDeterministicUnderVirtualClock pins the fix for
// the engine's wall-clock leak: with a virtual clock injected for
// telemetry, the full metrics snapshot — including the queue-wait
// histogram and merge-latency gauge that used to read time.Now — is
// byte-identical across parallelism 1, 2 and 8.
func TestRunEngineStatsDeterministicUnderVirtualClock(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var want []byte
	for _, par := range []int{1, 2, 8} {
		reg := conprobe.NewMetricsRegistry()
		opts := metricsOpts(par, reg.Scope("conprobe"))
		opts.Telemetry.EngineClock = conprobe.NewVirtualClock(start)
		if _, err := conprobe.Run(context.Background(), opts); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		// The parallelism gauge legitimately varies with the knob; mask
		// it so the comparison covers every other series.
		snap := strings.ReplaceAll(buf.String(),
			`"conprobe_engine_parallelism": `+strconv.Itoa(par), `"conprobe_engine_parallelism": 0`)
		if want == nil {
			want = []byte(snap)
			continue
		}
		if snap != string(want) {
			t.Errorf("parallelism %d: metrics snapshot differs from parallelism 1:\n%s\nwant:\n%s", par, snap, want)
		}
	}
}

// TestRunWithoutMetricsHasNoStats pins the nil path: no scope, no
// snapshot, and the campaign output is identical to the instrumented
// one.
func TestRunWithoutMetricsHasNoStats(t *testing.T) {
	bare, err := conprobe.Run(context.Background(), metricsOpts(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if bare.EngineStats != nil {
		t.Errorf("EngineStats without a scope: %v", bare.EngineStats)
	}
	reg := conprobe.NewMetricsRegistry()
	inst, err := conprobe.Run(context.Background(), metricsOpts(2, reg.Scope("conprobe")))
	if err != nil {
		t.Fatal(err)
	}
	bt, br := renderRun(t, bare)
	it, ir := renderRun(t, inst)
	if !bytes.Equal(bt, it) || !bytes.Equal(br, ir) {
		t.Error("enabling metrics changed the campaign output")
	}
}
