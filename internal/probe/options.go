package probe

import (
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

// Options parameterize a campaign, grouped by concern: Workload is the
// campaign itself (what to measure), Engine is how it executes,
// Resilience hardens the probing path, Durability journals it,
// Telemetry observes it, and Faults/Chaos script adverse conditions.
type Options struct {
	// Workload is the campaign definition: service, test mix, seed,
	// schedule shape. Service is the only required field.
	Workload Workload
	// Engine tunes the concurrent lane engine and its output plumbing.
	Engine Engine
	// Resilience wraps each agent's client in retry/breaker/deadline
	// middleware. The zero value leaves clients bare.
	Resilience Resilience
	// Durability checkpoints the campaign for crash-safe resume.
	Durability Durability
	// Telemetry observes the campaign without perturbing it.
	Telemetry Telemetry
	// Faults, when non-nil and enabled, wraps the simulated service in
	// the deterministic fault injector — a fault drill. A zero
	// Faults.Seed inherits the campaign Seed.
	Faults *faultinject.Config
	// Chaos, when non-nil and non-empty, scripts partitions, outages,
	// clock steps and overload windows on the campaign timeline
	// (offsets relative to Workload.Start).
	Chaos *chaos.Schedule
	// Disks maps disk site names ("wal", "term", "snapshot", "store",
	// "checkpoint") to the storage-fault injectors Chaos diskfault
	// events arm. When Durability.Checkpoint is set and Disks has no
	// "checkpoint" entry but Durability.FS is an injector's FS, wire the
	// injector here yourself — Run does not infer it. Run does aim the
	// "checkpoint" site's faults at the journal's actual file name, so
	// any -checkpoint path works.
	Disks map[string]*diskfault.Injector
}

// Workload describes what campaign to run: the service under test, the
// test mix and every knob that is part of the campaign's deterministic
// identity. Two equal Workloads (with equal Engine.Lanes) produce
// byte-identical traces.
type Workload struct {
	// Service is the built-in profile name (ServiceBlogger, ...).
	Service string
	// Test1Count and Test2Count are how many instances of each test
	// protocol to run.
	Test1Count, Test2Count int
	// Seed drives every random choice (network jitter, clock skews,
	// service behavior); a fixed seed reproduces a campaign exactly.
	Seed int64
	// Start is the virtual start time (default 2026-01-01T00:00Z). It
	// anchors the campaign epoch: chaos-schedule and fault-injection
	// window offsets are relative to it.
	Start time.Time
	// AlternateBlocks interleaves Test 1 and Test 2 blocks as the paper
	// did (0/1 = sequential).
	AlternateBlocks int
	// Rotate shifts the agents' locations cyclically by this many
	// positions (the paper's location-rotation control experiment).
	Rotate int
	// SyncSamples overrides the number of Cristian clock-sync probes
	// per agent per test (default 5).
	SyncSamples int
	// Profile, when non-nil, overrides the built-in profile looked up
	// by Service name (used by ablation studies).
	Profile *service.Profile
	// ConfigureNetwork, when set, mutates the default topology before
	// use (extra links, injected asymmetries).
	ConfigureNetwork func(*simnet.Network)
	// Wrap optionally interposes on each agent's service handle.
	Wrap ClientWrapper
}

// Engine tunes how the campaign executes: its lane partitioning, the
// worker parallelism, and where completed traces flow.
type Engine struct {
	// Lanes is the number of independent virtual worlds the campaign is
	// partitioned into (default DefaultLanes). The lane count is part of
	// the campaign's identity: changing it re-partitions the schedule and
	// yields different (equally valid) traces for the same Seed.
	Lanes int
	// Parallelism bounds how many lanes run concurrently (default
	// GOMAXPROCS). It is purely a throughput knob — any value produces
	// identical results for a fixed Seed and Lanes.
	Parallelism int
	// OnTrace, when set, receives every trace as its test completes,
	// serialized across lanes. A non-nil error cancels the campaign;
	// traces collected so far are still returned. Under DiscardTraces the
	// trace is valid only until OnTrace returns; encode or copy to keep it.
	OnTrace func(*trace.TestTrace) error
	// Progress, when set, receives (completed, total) after every test,
	// serialized across lanes.
	Progress func(done, total int)
	// DiscardTraces stops the engine from retaining traces in the
	// returned Result; traces then flow only through OnTrace and the
	// streaming aggregation, bounding a long campaign's memory by the
	// lane, not the campaign, size: each lane refills one trace per test.
	DiscardTraces bool
}

// Resilience hardens each agent's probing path.
type Resilience struct {
	// Retry, when non-nil, wraps each agent's client in the resilience
	// middleware with this policy. A zero Retry.Seed inherits the
	// campaign Seed.
	Retry *resilience.RetryPolicy
	// Breaker adds a per-agent circuit breaker to the resilience
	// middleware (implies Retry; a nil Retry uses the default policy).
	Breaker *resilience.BreakerConfig
}

// Durability journals the campaign for crash-safe resume.
type Durability struct {
	// Checkpoint, when non-empty, journals the campaign to this file:
	// each completed test's trace (unless Engine.DiscardTraces), the
	// lane's progress and the test's streaming-analysis snapshot, one
	// checksummed frame per test, fsynced behind the lanes. A campaign
	// killed at any point resumes from the journal with Resume and
	// produces output byte-identical to an uninterrupted run; after a
	// power cut the last tests, at most 64, re-run.
	Checkpoint string
	// Resume continues the campaign journaled in Checkpoint instead of
	// starting fresh. The journal's campaign identity (service, seed,
	// lanes, counts, blocks, start, rotation, sync samples) and
	// Engine.DiscardTraces must match these Options. Workload.Profile,
	// ConfigureNetwork and Wrap, Faults, Chaos and Resilience are still
	// not checked: resuming under different ones merges two campaigns.
	// Resilience state (retry counters, breaker position) is journaled
	// per lane and rewound on resume, so campaigns with Breaker set
	// reproduce the uninterrupted run byte-identically too.
	Resume bool
	// FS, when non-nil, is the filesystem the checkpoint journal lives
	// on. Storage-fault drills pass a diskfault injector's FS; nil means
	// the real filesystem.
	FS diskfault.FS
}

// Telemetry observes the campaign. Metrics are write-only for the
// engine — nothing reads them back — so enabling them cannot perturb
// the byte-identical-output-at-any-parallelism guarantee.
type Telemetry struct {
	// Metrics, when non-nil, receives the campaign's telemetry — per-lane
	// engine counters, queue waits, resilience and fault-injection
	// activity — and makes RunResult.EngineStats a snapshot of the
	// scope's registry. Typically reg.Scope("conprobe") on a registry
	// from NewMetricsRegistry.
	Metrics *obs.Scope
	// EngineClock, when non-nil, replaces the wall clock the engine's
	// telemetry (queue waits, merge latency) is read from. Injecting a
	// virtual clock makes EngineStats byte-identical across runs and
	// parallelism levels; campaign traces are deterministic either way.
	EngineClock vtime.Clock
}

// DefaultStart is the virtual campaign epoch used when Workload.Start
// is zero.
var DefaultStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Epoch is the campaign's virtual start: Start, or DefaultStart if zero.
func (w Workload) Epoch() time.Time {
	if w.Start.IsZero() {
		return DefaultStart
	}
	return w.Start
}

// LaneCount is the campaign's lane count: Lanes, or DefaultLanes if ≤ 0.
func (e Engine) LaneCount() int {
	if e.Lanes <= 0 {
		return DefaultLanes
	}
	return e.Lanes
}
