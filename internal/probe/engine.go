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
	"conprobe/internal/vtime"
)

// DefaultLanes is the number of lanes a campaign is partitioned into
// when Engine.Lanes is zero. The lane count — not the worker count — is
// the determinism anchor: changing it re-partitions the campaign and
// produces different (equally valid) traces, while changing Parallelism
// never does.
const DefaultLanes = 8

// LaneResume is one lane's journaled progress for SimulateConcurrent.
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
// across opts.Engine.Lanes independent virtual worlds, simulating up to
// opts.Engine.Parallelism of them at a time. The campaign schedule
// (globally unique TestIDs, campaign-relative fault windows) is dealt
// round-robin to lanes; each lane executes its share in its own world,
// and the per-lane results are merged in TestID order at the end.
//
// sink, when non-nil, receives each completed trace; conprobe.Run
// builds it from Engine.OnTrace, Progress and the journal, which the
// engine never touches. resume, when non-nil, holds each lane's
// journaled progress; a lane whose Done set is not a prefix of its share
// of the schedule means the journal belongs to a different campaign.
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
func SimulateConcurrent(ctx context.Context, opts Options, resume []LaneResume, sink laneSink) (*Result, error) {
	opts.Workload.Start = opts.Workload.Epoch()
	w := opts.Workload
	lanes := opts.Engine.LaneCount()
	par := opts.Engine.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > lanes {
		par = lanes
	}

	perLane := make([][]scheduleStep, lanes)
	for i, s := range scheduleOf(w.Test1Count, w.Test2Count, w.AlternateBlocks) {
		perLane[i%lanes] = append(perLane[i%lanes], s)
	}
	if resume != nil {
		if len(resume) != lanes {
			return nil, fmt.Errorf("campaign %s: resume state describes %d lanes, campaign has %d", w.Service, len(resume), lanes)
		}
		for l := range perLane {
			filtered, err := resumeFilter(perLane[l], resume[l].Done)
			if err != nil {
				return nil, fmt.Errorf("campaign %s: lane %d: %w", w.Service, l, err)
			}
			perLane[l] = filtered
		}
	}

	// Engine telemetry. Values here (queue wait, merge latency) describe
	// the host's execution and are read from EngineClock — by default the
	// wall clock, which legitimately varies run to run. Injecting a
	// virtual clock makes the whole metrics snapshot deterministic; the
	// trace/report determinism guarantee holds either way.
	clk := opts.Telemetry.EngineClock
	if clk == nil {
		clk = vtime.Real{}
	}
	esc := opts.Telemetry.Metrics.Sub("engine")
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
	for range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range jobs {
				queueWait.Observe(clk.Since(campStart).Seconds())
				// A one-lane campaign is a single world and keeps the
				// campaign seed.
				ln := lane{index: l, seed: w.Seed, metrics: opts.Telemetry.Metrics.With("lane", strconv.Itoa(l))}
				if lanes > 1 {
					ln.seed = laneSeed(w.Seed, l)
				}
				if resume != nil {
					// A zero At (the lane never completed a test) leaves
					// worldStart unset: the world starts at the epoch.
					ln.worldStart = resume[l].At
					ln.restore = resume[l].Resilience
				}
				results[l] = runLane(runCtx, opts, ln, perLane[l], sink)
				if results[l].err != nil {
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
		merged.Service = w.Service
	}
	sort.Slice(merged.Traces, func(i, j int) bool {
		return merged.Traces[i].TestID < merged.Traces[j].TestID
	})
	if firstErr != nil {
		return merged, fmt.Errorf("campaign %s: %w", w.Service, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return merged, fmt.Errorf("campaign %s: %w", w.Service, err)
	}
	return merged, nil
}

// runLane builds ln's private world from opts and executes its share of
// the schedule. sink receives each completed trace; a sink error aborts
// the lane with the traces collected so far.
func runLane(ctx context.Context, opts Options, ln lane, steps []scheduleStep, sink laneSink) laneResult {
	if len(steps) == 0 {
		return laneResult{res: &Result{Service: opts.Workload.Service}}
	}
	// Test counts stay campaign-global: CampaignFor derives fault
	// windows from them, and those windows index the global schedule the
	// steps were cut from.
	w, err := buildWorld(opts, ln, sink)
	if err != nil {
		return laneResult{err: err}
	}
	res, runErr := w.runSteps(ctx, steps)
	if res != nil {
		res.TrueSkews = w.trueSkews()
	}
	return laneResult{res: res, err: runErr}
}
