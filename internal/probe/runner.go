package probe

import (
	"context"
	"fmt"
	"slices"
	"time"

	"conprobe/internal/clocksync"
	"conprobe/internal/obs"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// ContextBinder is implemented by client layers that can bind a campaign
// context, so cancellation reaches in-flight requests and pending
// retries (resilience middleware, HTTP transport clients). The runner
// binds the campaign context to every client implementing it before the
// first test.
type ContextBinder interface {
	BindContext(ctx context.Context)
}

// Health is implemented by client wrappers that track endpoint liveness
// (the resilience middleware). The runner skips and accounts operations
// for unhealthy agents instead of issuing doomed requests — a flaky
// endpoint degrades its agent's coverage, not the whole campaign.
type Health interface {
	// Healthy reports whether an operation attempted now would be
	// admitted.
	Healthy() bool
}

// resilienceStats is implemented by the resilience middleware; the
// runner snapshots it around each test to attribute retries, skips and
// breaker trips to traces.
type resilienceStats interface {
	Stats() resilience.Stats
}

// ClientWrapper optionally interposes on an agent's view of the service
// (the session middleware uses this to mask anomalies client-side). It is
// called once per agent per campaign.
type ClientWrapper func(ag Agent, svc service.Service) service.Service

// Runner executes tests and campaigns against one service. Its Run*
// methods block and must be called from within an actor of the supplied
// runtime (or any goroutine when the runtime is vtime.RealRuntime).
type Runner struct {
	rt   vtime.Runtime
	net  *simnet.Network
	svc  service.Service
	cfg  Config
	wrap ClientWrapper

	// clients holds each agent's (possibly wrapped) service handle.
	clients []service.Service
	// statsBase holds, for clients exposing resilience stats, the
	// snapshot taken at the start of the current test.
	statsBase []resilience.Stats
	// recs holds each agent's recorder, kept across tests (merge empties
	// them) so their buffers are allocated once.
	recs []*recorder
	// simProbes holds each agent's simulated clock-sync probe, restarted
	// every test; unused when cfg.ProbeFor supplies the probes.
	simProbes []*clocksync.SimProbe
	// spare is, under DiscardTraces, a trace the sink is done with.
	spare *trace.TestTrace
	// group joins a test's agents; one for the runner's life, since tests
	// run one at a time.
	group vtime.Group

	// Engine telemetry (observed, never read back). The handles are
	// registered once in NewRunner; a nil cfg.Metrics yields live
	// unregistered metrics, so the hot path never branches.
	mStarted   *obs.Counter
	mFinished  *obs.Counter
	mDiscarded *obs.Counter
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithClientWrapper interposes w on every agent's service handle.
func WithClientWrapper(w ClientWrapper) RunnerOption {
	return func(r *Runner) { r.wrap = w }
}

// NewRunner validates cfg and builds a Runner.
func NewRunner(rt vtime.Runtime, net *simnet.Network, svc service.Service, cfg Config, opts ...RunnerOption) (*Runner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ClockSyncSamples <= 0 {
		cfg.ClockSyncSamples = 5
	}
	if cfg.StartDelay <= 0 {
		cfg.StartDelay = time.Second
	}
	r := &Runner{rt: rt, net: net, svc: svc, cfg: cfg, group: rt.NewGroup()}
	for _, o := range opts {
		o(r)
	}
	r.mStarted = cfg.Metrics.Counter("tests_started_total", "Tests the runner began executing.")
	r.mFinished = cfg.Metrics.Counter("tests_finished_total", "Tests that completed and produced a trace.")
	r.mDiscarded = cfg.Metrics.Counter("traces_discarded_total", "Traces dropped from the Result under DiscardTraces (they still reached the sink).")
	r.clients = make([]service.Service, len(cfg.Agents))
	r.statsBase = make([]resilience.Stats, len(cfg.Agents))
	r.recs = make([]*recorder, len(cfg.Agents))
	r.simProbes = make([]*clocksync.SimProbe, len(cfg.Agents))
	for i, ag := range cfg.Agents {
		r.recs[i] = &recorder{agent: ag.ID}
		r.simProbes[i] = clocksync.NewSimProbe(rt, net, cfg.Coordinator, ag.Site, ag.Clock)
		if r.wrap != nil {
			r.clients[i] = r.wrap(ag, svc)
		} else {
			r.clients[i] = svc
		}
	}
	return r, nil
}

// Result is the outcome of a campaign.
type Result struct {
	// Service is the probed service's name.
	Service string
	// Traces holds one trace per executed test, Test 1 instances first.
	Traces []*trace.TestTrace
	// TrueSkews is simulation-only ground truth: each agent's actual
	// clock offset. Live campaigns cannot know it; analyses use it to
	// quantify the clock-sync estimation error.
	TrueSkews map[trace.AgentID]time.Duration
}

// TracesOf returns the campaign's traces of one kind.
func (r *Result) TracesOf(kind trace.TestKind) []*trace.TestTrace {
	var out []*trace.TestTrace
	for _, t := range r.Traces {
		if t.Kind == kind {
			out = append(out, t)
		}
	}
	return out
}

// RunCampaign executes the configured number of Test 1 and Test 2
// instances, with clock re-synchronization before each test and the
// configured inter-test gaps, and returns all collected traces. With
// AlternateBlocks > 1 the two kinds are interleaved in blocks, as in the
// paper's four-day alternation.
//
// Cancelling ctx stops the campaign: between operations inside the
// running test, and before each subsequent test. Operations already on
// the wire are cancelled too when the client layers implement
// ContextBinder (resilience middleware, HTTP clients).
//
// Partial results: when RunCampaign returns a non-nil error — a failed
// test, a trace-sink error, or cancellation — the returned Result is
// also non-nil and carries every trace collected so far. A trace whose
// sink delivery failed is still included (it was collected; only its
// persistence failed), and the trace of a failed or cancelled test is
// not (it is not a complete sample). Callers must therefore treat
// (res, err) with both non-nil as a partial campaign, not discard res.
func (r *Runner) RunCampaign(ctx context.Context) (*Result, error) {
	return r.runSteps(ctx, r.schedule())
}

// runSteps executes an explicit slice of schedule steps (the whole
// schedule for RunCampaign, one lane's share for the concurrent engine).
// Trace TestIDs come from the steps, so lanes of a partitioned campaign
// emit globally unique, stable IDs. Partial-result semantics are those
// documented on RunCampaign.
func (r *Runner) runSteps(ctx context.Context, steps []scheduleStep) (*Result, error) {
	res := &Result{Service: r.svc.Name()}
	for _, c := range r.clients {
		if b, ok := c.(ContextBinder); ok {
			b.BindContext(ctx)
		}
	}
	if b, ok := r.svc.(ContextBinder); ok {
		b.BindContext(ctx)
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		r.applyFaults(step.kind, step.index)
		r.mStarted.Inc()
		tr, err := r.runTest(ctx, step.testID, step.kind)
		if err != nil {
			return res, fmt.Errorf("%v #%d: %w", step.kind, step.index, err)
		}
		if err := ctx.Err(); err != nil {
			// The test was cut short mid-protocol; its trace is not a
			// complete sample and is dropped.
			return res, err
		}
		r.mFinished.Inc()
		if !r.cfg.DiscardTraces {
			res.Traces = append(res.Traces, tr)
		} else {
			r.mDiscarded.Inc()
		}
		gap := r.cfg.Test1.Gap
		if step.kind == trace.Test2 {
			gap = r.cfg.Test2.Gap
		}
		if r.cfg.Sink != nil {
			// next is where the following step begins, so a resumed lane
			// rebuilds its world exactly there.
			if err := r.cfg.Sink(tr, r.rt.Now().Add(gap)); err != nil {
				return res, fmt.Errorf("trace sink after %v #%d: %w", step.kind, step.index, err)
			}
		}
		if r.cfg.DiscardTraces {
			// The sink has returned: the next test refills tr and carves
			// its observed IDs where tr's were.
			r.spare = tr
			for _, rec := range r.recs {
				rec.ids = rec.block[rec.mark:]
			}
		}
		r.rt.Sleep(gap)
	}
	r.clearFaults(trace.Test1)
	r.clearFaults(trace.Test2)
	return res, nil
}

// scheduleStep is one planned test instance: its kind, its 0-based index
// within that kind's sequence (the index fault windows refer to), and
// the campaign-unique TestID its trace will carry.
type scheduleStep struct {
	kind   trace.TestKind
	index  int
	testID int
}

// schedule lays out the campaign's test instances, honoring block
// alternation.
func (r *Runner) schedule() []scheduleStep {
	return scheduleOf(r.cfg.Test1.Count, r.cfg.Test2.Count, r.cfg.AlternateBlocks)
}

// scheduleOf lays out a campaign of test1Count Test 1 and test2Count
// Test 2 instances split into blocks alternating blocks (<=1 means all
// Test 1 first, then all Test 2). TestIDs are assigned 1..n in schedule
// order, so the same counts and blocks always produce the same plan —
// the anchor that lets a partitioned campaign stay deterministic.
func scheduleOf(test1Count, test2Count, blocks int) []scheduleStep {
	if blocks < 1 {
		blocks = 1
	}
	var out []scheduleStep
	i1, i2 := 0, 0
	for b := 0; b < blocks; b++ {
		n1 := blockShare(test1Count, blocks, b)
		for k := 0; k < n1; k++ {
			out = append(out, scheduleStep{kind: trace.Test1, index: i1, testID: len(out) + 1})
			i1++
		}
		n2 := blockShare(test2Count, blocks, b)
		for k := 0; k < n2; k++ {
			out = append(out, scheduleStep{kind: trace.Test2, index: i2, testID: len(out) + 1})
			i2++
		}
	}
	return out
}

// blockShare splits total across blocks, giving remainder to low
// indexes.
func blockShare(total, blocks, b int) int {
	base := total / blocks
	if b < total%blocks {
		base++
	}
	return base
}

// applyFaults sets partition state for test index i of the given kind.
func (r *Runner) applyFaults(kind trace.TestKind, i int) {
	for _, f := range r.cfg.Faults {
		if f.Kind != kind {
			continue
		}
		if i >= f.From && i < f.To {
			r.net.Partition(f.A, f.B)
		} else {
			r.net.Heal(f.A, f.B)
		}
	}
}

// clearFaults heals every partition of the given kind.
func (r *Runner) clearFaults(kind trace.TestKind) {
	for _, f := range r.cfg.Faults {
		if f.Kind == kind {
			r.net.Heal(f.A, f.B)
		}
	}
}

// syncClocks runs the clock-delta estimation against every agent
// (Section IV: "Before the start of each iteration of a test, the clock
// deltas were computed again"), setting every agent's entry of deltas and
// uncert. The simulated probes are salted with the test ID — not a
// running round counter — so each test's synchronization draws are
// independent of how many tests ran before it, and a resumed campaign
// replays them exactly.
func (r *Runner) syncClocks(testID int, deltas, uncert map[trace.AgentID]time.Duration) error {
	for i, ag := range r.cfg.Agents {
		var probe clocksync.ProbeFunc
		if r.cfg.ProbeFor != nil {
			probe = r.cfg.ProbeFor(ag)
		} else {
			r.simProbes[i].Round(int64(testID))
			probe = r.simProbes[i].Probe
		}
		res, err := clocksync.Estimate(r.rt, probe, r.cfg.ClockSyncSamples)
		if err != nil {
			return fmt.Errorf("clock sync agent %d: %w", ag.ID, err)
		}
		deltas[ag.ID] = res.Delta
		uncert[ag.ID] = res.Uncertainty
	}
	return nil
}

// newTrace assembles the common trace envelope and synchronizes clocks.
// It opens the test boundary first: every client layer implementing
// service.TestScoped rebases its deterministic counters onto testID, so
// the test's draws do not depend on which tests ran before it. A spare
// trace is refilled: its storage is kept, nothing it held.
func (r *Runner) newTrace(testID int, kind trace.TestKind) (*trace.TestTrace, error) {
	if ts, ok := r.svc.(service.TestScoped); ok {
		ts.BeginTest(testID)
	}
	for _, c := range r.clients {
		if ts, ok := c.(service.TestScoped); ok {
			ts.BeginTest(testID)
		}
	}
	tr := r.spare
	r.spare = nil
	if tr == nil {
		tr = &trace.TestTrace{
			Deltas:      make(map[trace.AgentID]time.Duration, len(r.cfg.Agents)),
			Uncertainty: make(map[trace.AgentID]time.Duration, len(r.cfg.Agents)),
		}
	}
	if err := r.syncClocks(testID, tr.Deltas, tr.Uncertainty); err != nil {
		return nil, err
	}
	if err := r.svc.Reset(); err != nil {
		return nil, fmt.Errorf("service reset before test %d: %w", testID, err)
	}
	for i, c := range r.clients {
		// Wrapped clients (e.g. session middleware) carry per-test state
		// of their own; reset it alongside the service.
		if c != r.svc {
			if err := c.Reset(); err != nil {
				return nil, fmt.Errorf("agent %d reset before test %d: %w", r.cfg.Agents[i].ID, testID, err)
			}
		}
	}
	// Snapshot resilience counters after the resets, so each trace's
	// retry/skip metadata covers exactly its own test's operations.
	for i, c := range r.clients {
		if sp, ok := c.(resilienceStats); ok {
			r.statsBase[i] = sp.Stats()
		}
	}
	*tr = trace.TestTrace{
		TestID:      testID,
		Kind:        kind,
		Service:     r.svc.Name(),
		Started:     r.rt.Now(),
		Agents:      len(r.cfg.Agents),
		Writes:      tr.Writes,
		Reads:       tr.Reads,
		Deltas:      tr.Deltas,
		Uncertainty: tr.Uncertainty,
	}
	if r.cfg.ChaosActive != nil {
		tr.ChaosActive = r.cfg.ChaosActive(tr.Started)
	}
	return tr, nil
}

// runTest executes one test instance of the given kind: it opens the
// trace, starts every agent's protocol at the coordinator's start instant
// on that agent's clock, joins them and folds their recorders in.
func (r *Runner) runTest(ctx context.Context, testID int, kind trace.TestKind) (*trace.TestTrace, error) {
	tr, err := r.newTrace(testID, kind)
	if err != nil {
		return nil, err
	}
	start := r.rt.Now().Add(r.cfg.StartDelay)
	var finalWrite trace.WriteID // Test 1 ends once every agent has seen it
	if kind == trace.Test1 {
		finalWrite = writeID(testID, 2*len(r.cfg.Agents))
	}
	g := r.group
	for i, ag := range r.cfg.Agents {
		client, rec, finalWrite := r.clients[i], r.recs[i], finalWrite // copied: captured by value
		rec.mark = len(rec.block) - len(rec.ids)
		startLocal := localStart(start, tr.Deltas[ag.ID])
		g.Go(func() {
			if kind == trace.Test1 {
				r.runTest1Agent(ctx, ag, client, testID, startLocal, finalWrite, rec)
			} else {
				r.runTest2Agent(ctx, ag, client, testID, startLocal, rec)
			}
		})
	}
	g.Join()
	r.finish(tr)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%v produced invalid trace: %w", kind, err)
	}
	return tr, nil
}

// recorder accumulates one agent's operations without locking; each agent
// has its own recorder and they are merged after the group joins.
type recorder struct {
	agent   trace.AgentID
	writes  []trace.Write
	reads   []trace.Read
	failed  int
	skipped int
	// block is the newest block observations are carved from, ids its
	// unused rest and mark where the current test's carving began. Kept
	// traces keep what was carved; a discarded one gives it back.
	block, ids []trace.WriteID
	mark       int
}

// idBlock is how many observed IDs a recorder allocates at a time (about
// two Test 2 instances' worth for one agent).
const idBlock = 256

// observe records the IDs of posts as one observation, carved from the
// block with its capacity cut so an append cannot reach a neighbour. An
// empty observation is empty, never nil: nil would journal as null and a
// resumed campaign would differ.
func (rec *recorder) observe(posts []service.Post) []trace.WriteID {
	n := len(posts)
	if rec.ids == nil || n > len(rec.ids) {
		rec.block = make([]trace.WriteID, max(idBlock, n))
		rec.ids, rec.mark = rec.block, 0
	}
	obs := rec.ids[:n:n]
	rec.ids = rec.ids[n:]
	for i, p := range posts {
		obs[i] = trace.WriteID(p.ID)
	}
	return obs
}

// localStart converts the coordinator-scheduled start time into the
// agent's local clock using the estimated delta, exactly as a real
// deployment would (the residual error is the sync error the paper
// discusses).
func localStart(start time.Time, delta time.Duration) time.Time {
	return start.Add(-delta)
}

// merge moves the per-agent recorders' operations into the trace, sizing
// its slices once, and leaves the recorders empty for the next test.
func merge(tr *trace.TestTrace, recs []*recorder) {
	writes, reads := 0, 0
	for _, rec := range recs {
		writes += len(rec.writes)
		reads += len(rec.reads)
	}
	tr.Writes, tr.Reads = refill(tr.Writes, writes), refill(tr.Reads, reads)
	for _, rec := range recs {
		tr.Writes = append(tr.Writes, rec.writes...)
		tr.Reads = append(tr.Reads, rec.reads...)
		count(&tr.FailedOps, rec.agent, rec.failed)
		count(&tr.SkippedOps, rec.agent, rec.skipped)
		rec.writes, rec.reads, rec.failed, rec.skipped = rec.writes[:0], rec.reads[:0], 0, 0
	}
}

// refill empties s with room for n, or is nil for n 0 as in a fresh
// trace: nil journals as null, empty as [].
func refill[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	return slices.Grow(s[:0], n)
}

// count adds n, when positive, to an agent's entry of one of the trace's
// per-agent maps, making the map on first use: a clean trace carries none.
func count(m *map[trace.AgentID]int, ag trace.AgentID, n int) {
	if n <= 0 {
		return
	}
	if *m == nil {
		*m = make(map[trace.AgentID]int)
	}
	(*m)[ag] += n
}

// finish merges the per-agent recorders and attributes resilience
// counters (retries spent, breaker-open skips, breaker trips) to the
// trace by diffing each client's stats against the test-start snapshot.
func (r *Runner) finish(tr *trace.TestTrace) {
	merge(tr, r.recs)
	for i, c := range r.clients {
		sp, ok := c.(resilienceStats)
		if !ok {
			continue
		}
		ag := r.cfg.Agents[i].ID
		now, base := sp.Stats(), r.statsBase[i]
		count(&tr.RetriedOps, ag, now.Retries-base.Retries)
		// Skips here are breaker-open rejections that slipped past the
		// runner's own health check (the op reached the middleware while open).
		count(&tr.SkippedOps, ag, now.Skipped-base.Skipped)
		count(&tr.BreakerTrips, ag, now.BreakerTrips-base.BreakerTrips)
	}
}
