package probe

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"conprobe/internal/resilience"
	"conprobe/internal/trace"
)

// TestLaneWorkersOverlapAtParallelism8 is the concurrency smoke test
// for the hot-path isolation work: it proves the engine actually runs
// lane workers simultaneously rather than serializing them behind a
// shared lock. Each Sink call — which runs inside its lane worker,
// outside the engine's serialization — parks the worker briefly in
// wall-clock time, so if the workers are free to overlap the active
// high-water mark climbs well above 1; a serialized engine would pin
// it at exactly 1.
func TestLaneWorkersOverlapAtParallelism8(t *testing.T) {
	var active, high int64
	opts := Options{
		Workload: Workload{
			Service:    "fbgroup",
			Test1Count: 8,
			Test2Count: 8,
			Seed:       9,
		},
		Engine: Engine{
			Lanes:       8,
			Parallelism: 8,
		},
	}
	sink := func(int, *trace.TestTrace, time.Time, map[string]resilience.Snapshot) error {
		n := atomic.AddInt64(&active, 1)
		for {
			h := atomic.LoadInt64(&high)
			if n <= h || atomic.CompareAndSwapInt64(&high, h, n) {
				break
			}
		}
		// Hold the worker so overlapping lanes are observable even
		// on a single-core host (sleep parks the goroutine and lets
		// the others run).
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&active, -1)
		return nil
	}
	res, err := SimulateConcurrent(context.Background(), opts, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 16 {
		t.Fatalf("traces = %d, want 16", len(res.Traces))
	}
	got := atomic.LoadInt64(&high)
	t.Logf("lane-worker high-water mark at parallelism 8: %d", got)
	if got < 2 {
		t.Errorf("high-water mark of active lane workers = %d; the engine is serializing lanes", got)
	}

	// The instrumentation (and its wall-clock sleeps) must not have
	// perturbed the campaign: a bare run produces the same traces.
	bare, err := SimulateConcurrent(context.Background(), opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeTraces(t, res.Traces), encodeTraces(t, bare.Traces)) {
		t.Error("instrumented run's traces differ from a bare run")
	}
}

func encodeTraces(t *testing.T, trs []*trace.TestTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, tr := range trs {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
