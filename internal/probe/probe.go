// Package probe implements the paper's measurement methodology (Section
// IV): geo-distributed agents that issue writes and background reads
// against a black-box Service, the two test protocols, and the campaign
// runner that alternates them for weeks of (virtual) time.
//
// Test 1 staggers write pairs across agents — agent i issues its two
// consecutive writes once it observes the last write of agent i-1 — while
// every agent reads continuously; its traces expose the four session-
// guarantee anomalies. Test 2 has all agents write (roughly)
// simultaneously and read with an adaptive period — fast at first, then
// one second, respecting rate limits — exposing content/order divergence
// and their windows.
//
// Before every test the coordinator re-estimates each agent's clock delta
// with the clocksync protocol; the deltas are recorded in the trace so
// the analysis can place all events on a single reference timeline.
package probe

import (
	"fmt"
	"strconv"
	"time"

	"conprobe/internal/clocksync"
	"conprobe/internal/obs"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
)

// Agent is one measurement client: an identity, a location, and a local
// clock (deliberately skewed in simulation, never trusted by analysis).
type Agent struct {
	// ID is the agent's 1-based identifier (the paper's Agent1..Agent3).
	ID trace.AgentID
	// Site is the agent's location.
	Site simnet.Site
	// Clock is the agent's local clock; all its trace timestamps come
	// from it.
	Clock *clocksync.SkewedClock
}

// agentLabels pre-renders the labels of the small agent IDs every
// deployment actually uses; Label is called on every operation, so it
// must not format.
var agentLabels = [...]string{
	"agent0", "agent1", "agent2", "agent3",
	"agent4", "agent5", "agent6", "agent7",
}

// Label returns the agent's author label ("agent1", ...).
func (a Agent) Label() string {
	if int(a.ID) < len(agentLabels) {
		return agentLabels[a.ID]
	}
	return "agent" + strconv.Itoa(int(a.ID))
}

// TestConfig carries the per-test parameters of Tables I and II.
type TestConfig struct {
	// ReadPeriod is the (initial) period between background reads.
	ReadPeriod time.Duration
	// FastReads is, for Test 2, how many initial reads use ReadPeriod
	// before switching to SlowPeriod (the "300ms (NX) then 1s" rows of
	// Table II). Zero means the period never changes.
	FastReads int
	// SlowPeriod is the post-FastReads read period for Test 2.
	SlowPeriod time.Duration
	// ReadsPerAgent is, for Test 2, the configurable number of reads
	// after which an agent stops.
	ReadsPerAgent int
	// WriteGap is the client-side pause between an agent's two
	// consecutive writes in Test 1.
	WriteGap time.Duration
	// Timeout aborts a Test 1 instance whose completion condition
	// (every agent observed the final write) is never met.
	Timeout time.Duration
	// Gap is the idle time between successive tests, imposed by service
	// rate limits.
	Gap time.Duration
	// Count is how many instances of the test the campaign runs.
	Count int
}

func (c *TestConfig) validate(kind trace.TestKind) error {
	if c.ReadPeriod <= 0 {
		return fmt.Errorf("%v: non-positive read period", kind)
	}
	if c.Count < 0 {
		return fmt.Errorf("%v: negative count", kind)
	}
	if kind == trace.Test2 {
		if c.ReadsPerAgent <= 0 {
			return fmt.Errorf("%v: reads per agent must be positive", kind)
		}
		if c.FastReads > 0 && c.SlowPeriod <= 0 {
			return fmt.Errorf("%v: adaptive reads need a slow period", kind)
		}
	} else if c.Timeout <= 0 {
		return fmt.Errorf("%v: non-positive timeout", kind)
	}
	return nil
}

// Fault is an injected network partition active during a contiguous range
// of test instances (used to reproduce the transient Tokyo fault the
// paper observed on Facebook Group).
type Fault struct {
	// Kind selects which test sequence the window indexes into.
	Kind trace.TestKind
	// From and To are 0-based test indexes; the partition is active for
	// tests with From <= index < To.
	From, To int
	// A and B are the partitioned sites.
	A, B simnet.Site
}

// Config describes a measurement campaign against one service.
type Config struct {
	// Agents are the measurement clients. Required, at least two.
	Agents []Agent
	// Coordinator is the site running clock sync and orchestration.
	Coordinator simnet.Site
	// ClockSyncSamples is the number of Cristian probes per agent per
	// test (default 5).
	ClockSyncSamples int
	// Test1 and Test2 parameterize the two protocols.
	Test1, Test2 TestConfig
	// Faults are injected partitions.
	Faults []Fault
	// StartDelay is how far in the future the coordinator schedules each
	// test's start, giving agents time to arm (default 1s).
	StartDelay time.Duration
	// AlternateBlocks, when >1, splits each test kind's instances into
	// that many blocks and interleaves them — Test 1 block, Test 2
	// block, and so on — as the paper did ("we alternated between
	// running each of the two test types roughly every four days").
	// 0 or 1 runs all Test 1 instances, then all Test 2 instances.
	AlternateBlocks int
	// ProbeFor, when set, supplies the clock-sync probe for an agent
	// (live deployments use an HTTP time probe). When nil, the simulated
	// network probe against the agent's skewed clock is used.
	ProbeFor func(ag Agent) clocksync.ProbeFunc
	// Sink, when set, receives each trace as soon as its test completes,
	// with the virtual instant the next schedule step begins (the test's
	// gap included), which the crash-safe resume path journals. A sink
	// error aborts the campaign. Under DiscardTraces the trace is valid
	// only until Sink returns.
	Sink func(tr *trace.TestTrace, next time.Time) error
	// DiscardTraces stops the runner from retaining traces in its
	// Result; traces then reach the caller only through Sink. Long
	// streaming campaigns use it to bound memory: once Sink returns, the
	// campaign's next test refills the trace (RunTest1 and RunTest2
	// always return a trace of their own).
	DiscardTraces bool
	// Metrics, when non-nil, receives the runner's engine telemetry
	// (tests started/finished, traces discarded). Metrics are observed,
	// never read back, so instrumentation cannot perturb a campaign.
	Metrics *obs.Scope
	// ChaosActive, when set, labels the chaos-schedule windows in force
	// at a virtual instant; the runner stamps each trace with the labels
	// active at its start.
	ChaosActive func(now time.Time) []string
}

func (c *Config) validate() error {
	if len(c.Agents) < 2 {
		return fmt.Errorf("probe: need at least two agents, have %d", len(c.Agents))
	}
	seen := make(map[trace.AgentID]bool, len(c.Agents))
	for i, a := range c.Agents {
		if a.ID != trace.AgentID(i+1) {
			return fmt.Errorf("probe: agent %d has ID %d; IDs must be 1..n in order", i, a.ID)
		}
		if seen[a.ID] {
			return fmt.Errorf("probe: duplicate agent ID %d", a.ID)
		}
		seen[a.ID] = true
		if a.Clock == nil {
			return fmt.Errorf("probe: agent %d has no clock", a.ID)
		}
	}
	if c.Coordinator == "" {
		return fmt.Errorf("probe: no coordinator site")
	}
	if c.Test1.Count > 0 {
		if err := c.Test1.validate(trace.Test1); err != nil {
			return err
		}
	}
	if c.Test2.Count > 0 {
		if err := c.Test2.validate(trace.Test2); err != nil {
			return err
		}
	}
	return nil
}

// writeID names the k-th write of a test, matching the paper's M1..M6.
// Built by concatenation: it runs once per write on the hot path.
func writeID(testID, k int) trace.WriteID {
	return trace.WriteID("t" + strconv.Itoa(testID) + "-m" + strconv.Itoa(k))
}

// sleepUntil sleeps on the agent's local clock until local time t.
func sleepUntil(c *clocksync.SkewedClock, t time.Time) {
	if d := t.Sub(c.Now()); d > 0 {
		c.Sleep(d)
	}
}
