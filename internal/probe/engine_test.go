package probe

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

func engineOpts(t1, t2 int) Options {
	return Options{Workload: Workload{
		Service:    service.NameGooglePlus,
		Test1Count: t1,
		Test2Count: t2,
		Seed:       7,
	}}
}

// onLanes returns opts partitioned into lanes lanes, par of them
// simulated at a time.
func onLanes(opts Options, lanes, par int) Options {
	opts.Engine.Lanes, opts.Engine.Parallelism = lanes, par
	return opts
}

// tracesJSONL renders traces (already in TestID order) as the canonical
// JSONL byte stream, the representation the determinism contract is
// stated over.
func tracesJSONL(t *testing.T, traces []*trace.TestTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, tr := range traces {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// laneLog records which lane delivered which TestIDs, guarded because
// different lanes call the sink concurrently.
type laneLog struct {
	mu  sync.Mutex
	seq map[int][]int
}

func (l *laneLog) sink(lane int, tr *trace.TestTrace, _ time.Time, _ map[string]resilience.Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq == nil {
		l.seq = make(map[int][]int)
	}
	l.seq[lane] = append(l.seq[lane], tr.TestID)
	return nil
}

// serialSink adapts a campaign-wide consumer to the engine's sink,
// serializing its calls across lanes.
func serialSink(f func(*trace.TestTrace) error) func(int, *trace.TestTrace, time.Time, map[string]resilience.Snapshot) error {
	var mu sync.Mutex
	return func(_ int, tr *trace.TestTrace, _ time.Time, _ map[string]resilience.Snapshot) error {
		mu.Lock()
		defer mu.Unlock()
		return f(tr)
	}
}

func TestSimulateConcurrentDeterministicAcrossParallelism(t *testing.T) {
	const lanes = 4
	run := func(par int) ([]byte, map[int][]int) {
		var log laneLog
		res, err := SimulateConcurrent(context.Background(), onLanes(engineOpts(4, 4), lanes, par), nil, log.sink)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(res.Traces) != 8 {
			t.Fatalf("parallelism %d: %d traces", par, len(res.Traces))
		}
		return tracesJSONL(t, res.Traces), log.seq
	}
	ref, refLanes := run(1)
	for _, par := range []int{2, 8} {
		got, gotLanes := run(par)
		if !bytes.Equal(ref, got) {
			t.Fatalf("parallelism %d: traces differ from parallelism 1", par)
		}
		for lane, ids := range refLanes {
			if len(gotLanes[lane]) != len(ids) {
				t.Fatalf("parallelism %d: lane %d delivered %v, want %v", par, lane, gotLanes[lane], ids)
			}
			for i, id := range ids {
				if gotLanes[lane][i] != id {
					t.Fatalf("parallelism %d: lane %d delivered %v, want %v", par, lane, gotLanes[lane], ids)
				}
			}
		}
	}
}

func TestSimulateConcurrentLanePartition(t *testing.T) {
	const lanes = 3
	var log laneLog
	res, err := SimulateConcurrent(context.Background(), onLanes(engineOpts(3, 3), lanes, 0), nil, log.sink)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin partition: schedule step i (TestID i+1) goes to lane
	// i%lanes, and each lane delivers its share in schedule order.
	for lane, ids := range log.seq {
		prev := 0
		for _, id := range ids {
			if (id-1)%lanes != lane {
				t.Fatalf("TestID %d delivered by lane %d", id, lane)
			}
			if id <= prev {
				t.Fatalf("lane %d delivered out of order: %v", lane, ids)
			}
			prev = id
		}
	}
	// Merged result is the full campaign in TestID order.
	for i, tr := range res.Traces {
		if tr.TestID != i+1 {
			t.Fatalf("merged trace %d has TestID %d", i, tr.TestID)
		}
	}
	if res.Service != service.NameGooglePlus || res.TrueSkews == nil {
		t.Fatalf("merged result metadata missing: %+v", res)
	}
}

func TestSimulateConcurrentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	res, err := SimulateConcurrent(ctx, onLanes(engineOpts(6, 6), 4, 2), nil, serialSink(func(tr *trace.TestTrace) error {
		delivered++
		if delivered == 2 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned nil result")
	}
	if len(res.Traces) < 2 || len(res.Traces) >= 12 {
		t.Fatalf("cancelled campaign kept %d traces, want partial", len(res.Traces))
	}
}

func TestSimulateConcurrentSinkErrorKeepsPartialTraces(t *testing.T) {
	sinkErr := errors.New("disk full")
	res, err := SimulateConcurrent(context.Background(), onLanes(engineOpts(4, 4), 4, 2), nil, serialSink(func(tr *trace.TestTrace) error {
		if tr.TestID%2 == 0 {
			return sinkErr
		}
		return nil
	}))
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if res == nil || len(res.Traces) == 0 {
		t.Fatal("sink failure dropped the collected traces")
	}
	if len(res.Traces) >= 8 {
		t.Fatalf("campaign ran to completion despite sink error (%d traces)", len(res.Traces))
	}
}

func TestSimulateConcurrentDiscardTraces(t *testing.T) {
	opts := engineOpts(2, 2)
	opts.Engine.DiscardTraces = true
	streamed := 0
	res, err := SimulateConcurrent(context.Background(), onLanes(opts, 2, 0), nil, serialSink(func(tr *trace.TestTrace) error { streamed++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 0 {
		t.Fatalf("DiscardTraces retained %d traces", len(res.Traces))
	}
	if streamed != 4 {
		t.Fatalf("streamed %d traces, want 4", streamed)
	}
}

func TestSimulateConcurrentEmptyCampaign(t *testing.T) {
	res, err := SimulateConcurrent(context.Background(), onLanes(engineOpts(0, 0), 4, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 0 || res.Service != service.NameGooglePlus {
		t.Fatalf("empty campaign result = %+v", res)
	}
}

func TestSimulateConcurrentMoreLanesThanTests(t *testing.T) {
	res, err := SimulateConcurrent(context.Background(), onLanes(engineOpts(1, 1), 8, 8), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(res.Traces))
	}
}

func TestLaneSeedDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for lane := 0; lane < 64; lane++ {
		s := laneSeed(1, lane)
		if prev, dup := seen[s]; dup {
			t.Fatalf("lanes %d and %d share seed %d", prev, lane, s)
		}
		seen[s] = lane
	}
	if laneSeed(1, 0) == laneSeed(2, 0) {
		t.Fatal("campaign seeds alias into the same lane seed")
	}
}

// A one-lane campaign is one world seeded with the campaign seed itself
// — what the CLI runs without engine flags; with more lanes every world
// draws from a derived seed.
func TestOneLaneKeepsCampaignSeed(t *testing.T) {
	ctx := context.Background()
	opts := engineOpts(3, 3)
	opts.Workload.Start = DefaultStart
	direct := func(steps []scheduleStep) []byte {
		w, err := buildWorld(opts, lane{seed: opts.Workload.Seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.runSteps(ctx, steps)
		if err != nil {
			t.Fatal(err)
		}
		return tracesJSONL(t, res.Traces)
	}
	steps := scheduleOf(opts.Workload.Test1Count, opts.Workload.Test2Count, opts.Workload.AlternateBlocks)

	one, err := SimulateConcurrent(ctx, onLanes(opts, 1, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tracesJSONL(t, one.Traces), direct(steps)) {
		t.Fatal("Lanes: 1 traces differ from a world built directly from opts.Seed")
	}

	var lane0Steps []scheduleStep
	for i := 0; i < len(steps); i += 2 {
		lane0Steps = append(lane0Steps, steps[i])
	}
	var lane0 []*trace.TestTrace
	_, err = SimulateConcurrent(ctx, onLanes(opts, 2, 0), nil, func(lane int, tr *trace.TestTrace, _ time.Time, _ map[string]resilience.Snapshot) error {
		if lane == 0 {
			lane0 = append(lane0, tr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lane0) != len(lane0Steps) {
		t.Fatalf("lane 0 of 2 ran %d tests, want %d", len(lane0), len(lane0Steps))
	}
	if bytes.Equal(tracesJSONL(t, lane0), direct(lane0Steps)) {
		t.Fatal("lane 0 of a two-lane campaign ran on the campaign seed, not a derived one")
	}
}
