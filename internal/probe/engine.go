package probe

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/resilience"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// DefaultLanes is the number of lanes a concurrent campaign is
// partitioned into when EngineOptions.Lanes is zero. The lane count —
// not the worker count — is the determinism anchor: changing it
// re-partitions the campaign and produces different (equally valid)
// traces, while changing Parallelism never does.
const DefaultLanes = 8

// EngineOptions configure the concurrent campaign engine.
type EngineOptions struct {
	// Lanes is the number of independent partitions the campaign
	// schedule is split into (default DefaultLanes). Each lane owns a
	// full virtual world — simulator, network, store cluster, agents —
	// seeded from (Seed, lane), so lanes share no mutable state and the
	// partition alone fixes the campaign's outcome. A campaign of one lane
	// is one world seeded with Seed itself.
	Lanes int
	// Parallelism bounds how many lanes are simulated concurrently
	// (default GOMAXPROCS). It is purely a throughput knob: any value
	// produces identical traces for a fixed Seed and Lanes.
	Parallelism int
	// Sink, when set, receives each completed trace inside its lane,
	// with the virtual instant the lane's next schedule step begins and
	// the lane's resilience-middleware state by agent label (nil without
	// the middleware). Calls for one lane are sequential; calls for
	// different lanes are concurrent, so a per-lane consumer needs no
	// lock and a campaign-wide one brings its own. A non-nil error aborts
	// the lane and cancels the campaign; already-collected traces are
	// still returned. Under DiscardTraces the trace is valid only until
	// the call returns.
	Sink func(lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot) error
	// Resume, when non-nil, restarts a checkpointed campaign: entry l
	// describes lane l's journaled progress. Its length must equal the
	// lane count, and each lane's Done set must be a prefix of that
	// lane's schedule share — anything else means the journal belongs to
	// a different campaign and is rejected.
	Resume []LaneResume
	// Clock is the time source for engine telemetry (queue waits, merge
	// latency). It defaults to the wall clock; campaigns that need
	// deterministic metrics snapshots inject a virtual clock so no real
	// time leaks into the simulated world's observability output.
	Clock vtime.Clock
}

// LaneResume is one lane's journaled progress for EngineOptions.Resume.
type LaneResume struct {
	// Done holds the TestIDs the lane completed before the crash.
	Done map[int]bool
	// At is the virtual instant the lane's next pending step begins; the
	// lane's world is rebuilt with its clock already there. Zero means
	// the lane never completed a test and starts from the campaign
	// epoch.
	At time.Time
	// Resilience is the lane's journaled resilience-middleware state by
	// agent label; the rebuilt world rewinds each agent's breaker and
	// retry counters to it. Nil when the campaign ran without the
	// middleware (or the lane never completed a test).
	Resilience map[string]resilience.Snapshot
}

// resumeFilter removes a lane's completed prefix from its schedule
// share. The runner executes steps strictly in order and journals each
// completion, so a valid journal's Done set is always a prefix; a
// mismatch means the journal was written by a different campaign
// partitioning.
func resumeFilter(steps []scheduleStep, done map[int]bool) ([]scheduleStep, error) {
	n := 0
	for n < len(steps) && done[steps[n].testID] {
		n++
	}
	if n != len(done) {
		return nil, fmt.Errorf("journaled tests are not a prefix of the lane's schedule (%d journaled, prefix of %d)", len(done), n)
	}
	return steps[n:], nil
}

// laneSeed derives lane l's world seed from the campaign seed. The
// derivation is keyed (not additive), so neighboring campaign seeds do
// not alias into each other's lane worlds.
func laneSeed(seed int64, lane int) int64 {
	return detrand.NewKey(seed, "lane").Uint(uint64(lane)).Hash()
}

// laneResult is one lane's outcome, indexed by lane for deterministic
// merging.
type laneResult struct {
	res *Result
	err error
}

// SimulateConcurrent runs the campaign described by opts partitioned
// across eng.Lanes independent virtual worlds, simulating up to
// eng.Parallelism of them at a time. The campaign schedule (globally
// unique TestIDs, campaign-relative fault windows) is dealt round-robin
// to lanes; each lane executes its share in its own world, and the
// per-lane results are merged in TestID order at the end.
//
// Determinism: for a fixed Seed and lane count, the returned traces are
// identical whatever Parallelism is — worker scheduling decides only
// when a lane runs, never what it computes. Different lane counts give
// different traces (lane worlds draw from derived seeds), all samples
// from the same generator.
//
// Cancelling ctx stops every lane at its next operation boundary.
// Partial results: on error or cancellation the returned Result is
// non-nil and carries every complete trace collected by every lane.
//
// TrueSkews are per-world ground truth; as lanes have distinct worlds,
// the merged result exposes lane 0's skews as a representative sample.
func SimulateConcurrent(ctx context.Context, opts SimulateOptions, eng EngineOptions) (*Result, error) {
	if opts.Start.IsZero() {
		opts.Start = DefaultStart
	}
	lanes := eng.Lanes
	if lanes <= 0 {
		lanes = DefaultLanes
	}
	par := eng.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > lanes {
		par = lanes
	}

	perLane := make([][]scheduleStep, lanes)
	for i, s := range scheduleOf(opts.Test1Count, opts.Test2Count, opts.AlternateBlocks) {
		perLane[i%lanes] = append(perLane[i%lanes], s)
	}
	if eng.Resume != nil {
		if len(eng.Resume) != lanes {
			return nil, fmt.Errorf("campaign %s: resume state describes %d lanes, campaign has %d", opts.Service, len(eng.Resume), lanes)
		}
		for l := range perLane {
			filtered, err := resumeFilter(perLane[l], eng.Resume[l].Done)
			if err != nil {
				return nil, fmt.Errorf("campaign %s: lane %d: %w", opts.Service, l, err)
			}
			perLane[l] = filtered
		}
	}

	// Engine telemetry. Values here (queue wait, merge latency) describe
	// the host's execution and are read from eng.Clock — by default the
	// wall clock, which legitimately varies run to run. Injecting a
	// virtual clock makes the whole metrics snapshot deterministic; the
	// trace/report determinism guarantee holds either way.
	clk := eng.Clock
	if clk == nil {
		clk = vtime.Real{}
	}
	esc := opts.Metrics.Sub("engine")
	esc.Gauge("lanes", "Number of lanes the campaign is partitioned into.").Set(float64(lanes))
	esc.Gauge("parallelism", "Worker-pool size simulating lanes concurrently.").Set(float64(par))
	queueWait := esc.Histogram("lane_queue_wait_seconds",
		"Wall-clock wait from campaign start until a worker picked the lane up.", nil)
	mergeSeconds := esc.Gauge("merge_seconds",
		"Wall-clock time of the final cross-lane merge and sort.")
	campStart := clk.Now()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]laneResult, lanes)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lane := range jobs {
				queueWait.Observe(clk.Since(campStart).Seconds())
				laneOpts := opts
				// A one-lane campaign is a single world and keeps the
				// campaign seed.
				if lanes > 1 {
					laneOpts.Seed = laneSeed(opts.Seed, lane)
				}
				laneOpts.Metrics = opts.Metrics.With("lane", strconv.Itoa(lane))
				if eng.Resume != nil {
					// A zero At (the lane never completed a test) leaves
					// WorldStart unset: the world starts at the epoch.
					laneOpts.WorldStart = eng.Resume[lane].At
					laneOpts.ResilienceRestore = eng.Resume[lane].Resilience
				}
				results[lane] = runLane(runCtx, laneOpts, lane, perLane[lane], eng.Sink)
				if results[lane].err != nil {
					// Stop the other lanes at their next boundary; their
					// partial traces are still merged below.
					cancel()
				}
			}
		}()
	}
	for lane := 0; lane < lanes; lane++ {
		jobs <- lane
	}
	close(jobs)
	wg.Wait()

	mergeStart := clk.Now()
	defer func() { mergeSeconds.Set(clk.Since(mergeStart).Seconds()) }()
	merged := &Result{}
	var firstErr error
	for lane, lr := range results {
		// Prefer a root-cause error over the secondary cancellations the
		// engine itself propagated to the other lanes.
		if lr.err != nil && (firstErr == nil ||
			(errors.Is(firstErr, context.Canceled) && !errors.Is(lr.err, context.Canceled))) {
			firstErr = fmt.Errorf("lane %d: %w", lane, lr.err)
		}
		if lr.res == nil {
			continue
		}
		if merged.Service == "" {
			merged.Service = lr.res.Service
		}
		if merged.TrueSkews == nil && lr.res.TrueSkews != nil {
			merged.TrueSkews = lr.res.TrueSkews
		}
		merged.Traces = append(merged.Traces, lr.res.Traces...)
	}
	if merged.Service == "" {
		merged.Service = opts.Service
	}
	sort.Slice(merged.Traces, func(i, j int) bool {
		return merged.Traces[i].TestID < merged.Traces[j].TestID
	})
	if firstErr != nil {
		return merged, fmt.Errorf("campaign %s: %w", opts.Service, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return merged, fmt.Errorf("campaign %s: %w", opts.Service, err)
	}
	return merged, nil
}

// runLane builds lane's private world from opts (already carrying the
// lane's seed) and executes its share of the schedule. sink receives
// each completed trace; a sink error aborts the lane with the traces
// collected so far.
func runLane(ctx context.Context, opts SimulateOptions, lane int, steps []scheduleStep, sink laneSink) laneResult {
	if len(steps) == 0 {
		return laneResult{res: &Result{Service: opts.Service}}
	}
	// Test counts stay campaign-global: CampaignFor derives fault
	// windows from them, and those windows index the global schedule the
	// steps were cut from.
	w, err := buildWorld(opts, lane, sink)
	if err != nil {
		return laneResult{err: err}
	}
	res, runErr := w.runSteps(ctx, steps)
	if res != nil {
		res.TrueSkews = w.trueSkews()
	}
	return laneResult{res: res, err: runErr}
}
