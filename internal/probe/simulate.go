package probe

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"conprobe/internal/chaos"
	"conprobe/internal/faultinject"
	"conprobe/internal/obs"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// lane is what one lane's world adds to the campaign's Options: its
// index, its seed (the campaign seed in a one-lane campaign, a derived
// one otherwise), its metrics scope and, for a resumed lane, the instant
// its world restarts at and its agents' journaled resilience state.
type lane struct {
	index      int
	seed       int64
	metrics    *obs.Scope
	worldStart time.Time
	restore    map[string]resilience.Snapshot
}

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

// laneSink receives each completed trace inside its lane, with the
// virtual instant the lane's next step begins and the lane's
// resilience-middleware state by agent label (nil when Retry and
// Breaker are both unset). Calls for one lane are sequential; calls for
// different lanes are concurrent.
type laneSink func(lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot) error

// buildWorld assembles ln's virtual-time world from opts (Start already
// defaulted) whose runner hands each completed trace to sink. All
// randomness inside the world derives from ln.seed, so two worlds built
// from equal options and lanes behave identically.
func buildWorld(opts Options, ln lane, sink laneSink) (*simWorld, error) {
	w := opts.Workload
	prof, err := service.ProfileByName(w.Service)
	if err != nil {
		return nil, err
	}
	if w.Profile != nil {
		prof = *w.Profile
	}

	if err := opts.Chaos.Validate(); err != nil {
		return nil, err
	}
	worldStart := w.Start
	if !ln.worldStart.IsZero() {
		worldStart = ln.worldStart
	}
	sim := vtime.NewSim(worldStart)
	net := simnet.DefaultTopology(ln.seed)
	if w.ConfigureNetwork != nil {
		w.ConfigureNetwork(net)
	}
	svc, err := service.NewSimulated(sim, net, prof, ln.seed+1)
	if err != nil {
		return nil, err
	}
	var base service.Service = svc
	var fcfg faultinject.Config
	if opts.Faults != nil {
		fcfg = *opts.Faults
	}
	// The chaos schedule's overload events shed through the injector.
	var inj *faultinject.Injector
	if fcfg.Enabled() || opts.Chaos != nil && slices.ContainsFunc(opts.Chaos.Events,
		func(e chaos.Event) bool { return e.Kind == chaos.KindOverload }) {
		if fcfg.Seed == 0 {
			fcfg.Seed = ln.seed
		}
		// Outage windows are campaign-relative: anchored at the campaign
		// epoch, not the world's (possibly resumed) build time.
		fcfg.StartAt = w.Start
		if err := fcfg.Validate(); err != nil {
			return nil, err
		}
		inj = faultinject.New(base, sim, fcfg)
		inj.Instrument(ln.metrics.Sub("faultinject"))
		base = inj
	}
	wrap := w.Wrap
	// resByAgent collects the per-agent resilience middlewares as the
	// runner wraps its clients (sequentially, inside NewRunner), so the
	// sink can export their state at test boundaries.
	var resByAgent map[string]*resilience.Service
	if r := opts.Resilience; r.Retry != nil || r.Breaker != nil {
		resByAgent = make(map[string]*resilience.Service)
		for label, snap := range ln.restore {
			if err := snap.Validate(r.Breaker != nil); err != nil {
				return nil, fmt.Errorf("probe: agent %s: %w", label, err)
			}
		}
		policy := resilience.RetryPolicy{}
		if r.Retry != nil {
			policy = *r.Retry
		}
		if policy.Seed == 0 {
			policy.Seed = ln.seed
		}
		var ropts []resilience.Option
		if r.Breaker != nil {
			ropts = append(ropts, resilience.WithBreaker(*r.Breaker))
		}
		// The resilience layer sits below any user wrapper (e.g. session
		// masking), so wrappers carrying per-test state see a service
		// whose transient faults have already been absorbed.
		userWrap := w.Wrap
		rsc := ln.metrics.Sub("resilience")
		wrap = func(ag Agent, s service.Service) service.Service {
			agOpts := append([]resilience.Option{
				resilience.WithMetrics(rsc.With("agent", ag.Label())),
			}, ropts...)
			rs := resilience.Wrap(s, sim, policy, agOpts...)
			if snap, ok := ln.restore[ag.Label()]; ok {
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
	} else if len(ln.restore) > 0 {
		return nil, fmt.Errorf("probe: resilience state to restore but neither Retry nor Breaker is configured")
	}
	agents := DefaultAgents(sim, maxSkew, ln.seed+2)
	if w.Rotate != 0 {
		agents = RotateSites(agents, w.Rotate)
	}
	cfg, err := CampaignFor(w.Service, agents, w.Test1Count, w.Test2Count)
	if err != nil {
		return nil, err
	}
	if w.SyncSamples > 0 {
		cfg.ClockSyncSamples = w.SyncSamples
	}
	cfg.AlternateBlocks = w.AlternateBlocks
	cfg.DiscardTraces = opts.Engine.DiscardTraces
	cfg.Metrics = ln.metrics.Sub("engine")
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
			return sink(ln.index, tr, next, res)
		}
	}
	if !opts.Chaos.Empty() {
		sched, start := opts.Chaos, w.Start
		cfg.ChaosActive = func(now time.Time) []string {
			return sched.ActiveAt(now.Sub(start))
		}
		world := chaos.World{
			Net: net, Clocks: make(map[string]chaos.AdjustableClock, len(agents)),
			Service: inj, Routing: prof.Routing, Disks: opts.Disks,
		}
		for _, ag := range agents {
			world.Clocks[ag.Label()] = ag.Clock
		}
		// Aim the "checkpoint" disk site at the journal's actual file
		// name: the site table's generic "checkpoint" substring only
		// matches paths that happen to contain the word, and a chaos
		// diskfault(checkpoint, ...) that silently matches nothing is
		// exactly the misdirected fault World.Disks exists to prevent.
		if ck := opts.Durability.Checkpoint; ck != "" && opts.Disks["checkpoint"] != nil {
			world.DiskPaths = map[string]string{"checkpoint": filepath.Base(ck)}
		}
		// Drive before the runner actor exists: the schedule's timers
		// land ahead of the runner in the simulator's event queue, so
		// same-instant ties resolve chaos-first in both a lived and a
		// resumed world (where past events are applied synchronously
		// here).
		if err := sched.Drive(sim, w.Start, world, ln.metrics.Sub("chaos")); err != nil {
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
