package probe

import (
	"context"
	"fmt"
	"time"

	"conprobe/internal/chaos"
	"conprobe/internal/diskfault"
	"conprobe/internal/faultinject"
	"conprobe/internal/obs"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// SimulateOptions parameterize a fully simulated campaign.
type SimulateOptions struct {
	// Service is the built-in profile name.
	Service string
	// Test1Count and Test2Count are how many instances of each test to
	// run.
	Test1Count, Test2Count int
	// Seed drives every random choice (network jitter, clock skews,
	// service behavior); a fixed seed reproduces a campaign exactly.
	Seed int64
	// Start is the virtual start time (default 2026-01-01T00:00Z). It
	// anchors the campaign epoch: chaos-schedule and fault-injection
	// window offsets are relative to it.
	Start time.Time
	// WorldStart, when set, starts the virtual clock there instead of at
	// Start. Resumed lanes use it to rebuild their world at the virtual
	// instant the next pending test would have begun, while Start keeps
	// anchoring the campaign-relative windows.
	WorldStart time.Time
	// Wrap optionally interposes on each agent's service handle.
	Wrap ClientWrapper
	// Profile, when non-nil, overrides the built-in profile looked up by
	// Service name (used by ablation studies).
	Profile *service.Profile
	// Rotate shifts the agents' locations cyclically by this many
	// positions (the paper's location-rotation control experiment).
	Rotate int
	// SyncSamples overrides the number of Cristian probes per agent per
	// test (default 5); the clock-quality ablation lowers it to degrade
	// the write-scheduling simultaneity of Test 2.
	SyncSamples int
	// AlternateBlocks interleaves Test 1 and Test 2 blocks as the paper
	// did (0/1 = sequential).
	AlternateBlocks int
	// ConfigureNetwork, when set, mutates the default topology before
	// use (extra links for bespoke data centers, injected asymmetries).
	ConfigureNetwork func(*simnet.Network)
	// Faults, when non-nil and enabled, wraps the simulated service in
	// the deterministic fault injector — a fault drill. A zero Faults.Seed
	// inherits the campaign Seed, so one number reproduces the run.
	Faults *faultinject.Config
	// Chaos, when non-nil and non-empty, scripts partitions, outages,
	// clock steps and overload windows on the campaign timeline (offsets
	// relative to Start). Overload events are compiled into Faults
	// windows; the rest drive the network and agent clocks directly.
	Chaos *chaos.Schedule
	// Disks maps disk site names ("wal", "term", "snapshot", "store",
	// "checkpoint") to the storage-fault injectors the schedule's
	// diskfault events arm. The simulated campaign world has no disks of
	// its own — the injectors belong to whatever durable components the
	// caller runs alongside the campaign (a consvc node's WAL, the
	// checkpoint journal) and are threaded here so chaos can script
	// their failures on the same timeline as partitions and outages.
	Disks map[string]*diskfault.Injector
	// DiskPaths overrides, per site, the path substring an armed fault
	// matches (chaos.World.DiskPaths); sites not listed fall back to
	// diskfault.Sites.
	DiskPaths map[string]string
	// Retry, when non-nil, wraps each agent's client in the resilience
	// middleware with this policy. A zero Retry.Seed inherits the
	// campaign Seed.
	Retry *resilience.RetryPolicy
	// Breaker adds a per-agent circuit breaker to the resilience
	// middleware (implies Retry; a nil Retry uses the default policy).
	Breaker *resilience.BreakerConfig
	// ResilienceRestore rewinds each agent's resilience middleware to a
	// journaled state, keyed by agent label. A resumed lane passes the
	// snapshots its checkpoint recorded, so breaker health and retry
	// counters continue exactly where the crashed run left them.
	ResilienceRestore map[string]resilience.Snapshot
	// DiscardTraces stops the runner from retaining traces in the
	// returned Result; traces then flow only through EngineOptions.Sink,
	// bounding a long campaign's memory by the lane, not the campaign,
	// size. Each lane refills one trace test after test, so the sink's
	// trace is valid only until it returns.
	DiscardTraces bool
	// Metrics, when non-nil, receives the campaign's telemetry: engine
	// counters, resilience retries/backoffs/breaker transitions and
	// injected-fault counts, all registered under this scope. Metrics are
	// write-only for the engine — nothing reads them back — so they
	// cannot perturb the campaign's deterministic output. The concurrent
	// engine derives a lane="N"-labeled sub-scope per lane.
	Metrics *obs.Scope
}

// DefaultStart is the virtual campaign epoch used when
// SimulateOptions.Start is zero. Exported so checkpoint metadata can
// record the effective epoch of a campaign built with a zero Start.
var DefaultStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// maxSkew bounds the agents' random clock offsets.
const maxSkew = 2 * time.Second

// simWorld is one self-contained virtual universe: a simulator, a
// network, a service instance and a runner wired over them. The engine
// builds one per lane, so lanes share no mutable state whatsoever.
type simWorld struct {
	sim    *vtime.Sim
	agents []Agent
	runner *Runner
}

// laneSink is EngineOptions.Sink: it receives a lane's completed trace,
// the virtual instant the lane's next step begins and its agents'
// resilience-middleware state at that boundary (nil when Retry and
// Breaker are both unset).
type laneSink func(lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot) error

// buildWorld assembles lane's virtual-time world from opts (Start
// already defaulted) whose runner hands each completed trace to sink.
// All randomness inside the world derives from opts.Seed, so two worlds
// built from equal options behave identically.
func buildWorld(opts SimulateOptions, lane int, sink laneSink) (*simWorld, error) {
	prof, err := service.ProfileByName(opts.Service)
	if err != nil {
		return nil, err
	}
	if opts.Profile != nil {
		prof = *opts.Profile
	}

	if err := opts.Chaos.Validate(); err != nil {
		return nil, err
	}
	worldStart := opts.Start
	if !opts.WorldStart.IsZero() {
		worldStart = opts.WorldStart
	}
	sim := vtime.NewSim(worldStart)
	net := simnet.DefaultTopology(opts.Seed)
	if opts.ConfigureNetwork != nil {
		opts.ConfigureNetwork(net)
	}
	svc, err := service.NewSimulated(sim, net, prof, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	var base service.Service = svc
	var fcfg faultinject.Config
	if opts.Faults != nil {
		fcfg = *opts.Faults
	}
	if !opts.Chaos.Empty() {
		fcfg.Overloads = append(fcfg.Overloads, opts.Chaos.Overloads(prof.Routing)...)
	}
	if fcfg.Enabled() {
		if fcfg.Seed == 0 {
			fcfg.Seed = opts.Seed
		}
		// Windows are campaign-relative: anchored at the campaign epoch,
		// not the world's (possibly resumed) build time.
		fcfg.StartAt = opts.Start
		if err := fcfg.Validate(); err != nil {
			return nil, err
		}
		inj := faultinject.New(base, sim, fcfg)
		inj.Instrument(opts.Metrics.Sub("faultinject"))
		base = inj
	}
	wrap := opts.Wrap
	// resByAgent collects the per-agent resilience middlewares as the
	// runner wraps its clients (sequentially, inside NewRunner), so the
	// sink can export their state at test boundaries.
	var resByAgent map[string]*resilience.Service
	if opts.Retry != nil || opts.Breaker != nil {
		resByAgent = make(map[string]*resilience.Service)
		for label, snap := range opts.ResilienceRestore {
			if err := snap.Validate(opts.Breaker != nil); err != nil {
				return nil, fmt.Errorf("probe: agent %s: %w", label, err)
			}
		}
		policy := resilience.RetryPolicy{}
		if opts.Retry != nil {
			policy = *opts.Retry
		}
		if policy.Seed == 0 {
			policy.Seed = opts.Seed
		}
		var ropts []resilience.Option
		if opts.Breaker != nil {
			ropts = append(ropts, resilience.WithBreaker(*opts.Breaker))
		}
		// The resilience layer sits below any user wrapper (e.g. session
		// masking), so wrappers carrying per-test state see a service
		// whose transient faults have already been absorbed.
		userWrap := opts.Wrap
		rsc := opts.Metrics.Sub("resilience")
		wrap = func(ag Agent, s service.Service) service.Service {
			agOpts := append([]resilience.Option{
				resilience.WithMetrics(rsc.With("agent", ag.Label())),
			}, ropts...)
			rs := resilience.Wrap(s, sim, policy, agOpts...)
			if snap, ok := opts.ResilienceRestore[ag.Label()]; ok {
				if err := rs.Restore(snap); err != nil {
					panic(fmt.Sprintf("probe: restoring %s resilience state: %v", ag.Label(), err))
				}
			}
			resByAgent[ag.Label()] = rs
			if userWrap != nil {
				return userWrap(ag, rs)
			}
			return rs
		}
	} else if len(opts.ResilienceRestore) > 0 {
		return nil, fmt.Errorf("probe: resilience state to restore but neither Retry nor Breaker is configured")
	}
	agents := DefaultAgents(sim, maxSkew, opts.Seed+2)
	if opts.Rotate != 0 {
		agents = RotateSites(agents, opts.Rotate)
	}
	cfg, err := CampaignFor(opts.Service, agents, opts.Test1Count, opts.Test2Count)
	if err != nil {
		return nil, err
	}
	if opts.SyncSamples > 0 {
		cfg.ClockSyncSamples = opts.SyncSamples
	}
	cfg.AlternateBlocks = opts.AlternateBlocks
	cfg.DiscardTraces = opts.DiscardTraces
	cfg.Metrics = opts.Metrics.Sub("engine")
	if sink != nil {
		cfg.Sink = func(tr *trace.TestTrace, next time.Time) error {
			// Export the middleware state at this quiet boundary (the
			// runner is between tests; nothing is in flight).
			var res map[string]resilience.Snapshot
			if len(resByAgent) > 0 {
				res = make(map[string]resilience.Snapshot, len(resByAgent))
				for label, rs := range resByAgent {
					res[label] = rs.Export()
				}
			}
			return sink(lane, tr, next, res)
		}
	}
	if !opts.Chaos.Empty() {
		sched, start := opts.Chaos, opts.Start
		cfg.ChaosActive = func(now time.Time) []string {
			return sched.ActiveAt(now.Sub(start))
		}
		clocks := make(map[string]chaos.AdjustableClock, len(agents))
		for _, ag := range agents {
			clocks[ag.Label()] = ag.Clock
		}
		// Drive before the runner actor exists: the schedule's timers
		// land ahead of the runner in the simulator's event queue, so
		// same-instant ties resolve chaos-first in both a lived and a
		// resumed world (where past events are applied synchronously
		// here).
		if err := sched.Drive(sim, opts.Start, chaos.World{Net: net, Clocks: clocks, Disks: opts.Disks, DiskPaths: opts.DiskPaths}, opts.Metrics.Sub("chaos")); err != nil {
			return nil, err
		}
	}
	var runnerOpts []RunnerOption
	if wrap != nil {
		runnerOpts = append(runnerOpts, WithClientWrapper(wrap))
	}
	runner, err := NewRunner(sim, net, base, cfg, runnerOpts...)
	if err != nil {
		return nil, err
	}
	return &simWorld{sim: sim, agents: agents, runner: runner}, nil
}

// trueSkews exposes the world's ground-truth clock offsets.
func (w *simWorld) trueSkews() map[trace.AgentID]time.Duration {
	out := make(map[trace.AgentID]time.Duration, len(w.agents))
	for _, ag := range w.agents {
		out[ag.ID] = ag.Clock.Skew()
	}
	return out
}

// runSteps executes steps inside the world's simulator and blocks until
// the virtual world drains.
func (w *simWorld) runSteps(ctx context.Context, steps []scheduleStep) (*Result, error) {
	var (
		res    *Result
		runErr error
	)
	w.sim.Go(func() {
		res, runErr = w.runner.runSteps(ctx, steps)
	})
	w.sim.Wait()
	return res, runErr
}

// Simulate runs a complete measurement campaign in one virtual-time
// world — a one-lane SimulateConcurrent — and returns the collected
// traces. A month-long campaign completes in seconds of wall-clock time.
func Simulate(opts SimulateOptions) (*Result, error) {
	return SimulateConcurrent(context.Background(), opts, EngineOptions{Lanes: 1})
}
