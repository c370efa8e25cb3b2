// Package trace defines the operation records produced by measurement
// agents and consumed by the anomaly checkers and the analysis layer.
//
// A TestTrace is the complete log of one test instance: every write and
// read issued by every agent, with invocation/response timestamps taken on
// each agent's local clock, plus the clock deltas estimated by the
// coordinator before the test started (Section IV of the paper). Traces
// are the interface between collection and analysis: live-collected JSONL
// traces and simulator-produced traces flow through identical code.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// AgentID identifies a measurement agent. The paper's deployment uses
// agents 1..3 (Oregon, Tokyo, Ireland).
type AgentID int

// WriteID uniquely identifies a write operation (the paper's M1..M6).
type WriteID string

// TestKind distinguishes the two test protocols of Section IV.
type TestKind int

// The two black-box tests.
const (
	Test1 TestKind = iota + 1 // staggered write pairs, background reads
	Test2                     // simultaneous writes, adaptive-rate reads
)

// String returns "test1" or "test2".
func (k TestKind) String() string {
	switch k {
	case Test1:
		return "test1"
	case Test2:
		return "test2"
	default:
		return fmt.Sprintf("testkind(%d)", int(k))
	}
}

// Write records one write operation.
type Write struct {
	ID    WriteID `json:"id"`
	Agent AgentID `json:"agent"`
	// Seq is the 1-based issue order of this write within its agent's
	// writes for the test.
	Seq int `json:"seq"`
	// Invoked and Returned are local-clock timestamps on the issuing
	// agent.
	Invoked  time.Time `json:"invoked"`
	Returned time.Time `json:"returned"`
	// Trigger, when non-empty, is the write whose observation caused this
	// write to be issued (the Writes-Follows-Reads dependency: M2 for M3,
	// M4 for M5 in Test 1).
	Trigger WriteID `json:"trigger,omitempty"`
}

// Read records one read operation and the sequence of writes it observed.
type Read struct {
	Agent    AgentID   `json:"agent"`
	Invoked  time.Time `json:"invoked"`
	Returned time.Time `json:"returned"`
	// Observed is the sequence of write IDs returned by the service, in
	// service order.
	Observed []WriteID `json:"observed"`
}

// Contains reports whether the read observed id.
func (r *Read) Contains(id WriteID) bool {
	for _, w := range r.Observed {
		if w == id {
			return true
		}
	}
	return false
}

// Position returns the index of id in the observed sequence, or -1.
func (r *Read) Position(id WriteID) int {
	for i, w := range r.Observed {
		if w == id {
			return i
		}
	}
	return -1
}

// TestTrace is the full log of one test instance.
type TestTrace struct {
	TestID  int      `json:"test_id"`
	Kind    TestKind `json:"kind"`
	Service string   `json:"service"`
	// Started is the coordinator-clock time at which the test began.
	Started time.Time `json:"started"`
	Agents  int       `json:"agents"`
	Writes  []Write   `json:"writes"`
	Reads   []Read    `json:"reads"`
	// Deltas maps each agent to the estimated difference
	// (coordinator clock − agent clock); adding an agent's delta to one
	// of its local timestamps yields coordinator (reference) time.
	Deltas map[AgentID]time.Duration `json:"deltas_ns,omitempty"`
	// Uncertainty is the half-RTT error bound on each delta.
	Uncertainty map[AgentID]time.Duration `json:"uncertainty_ns,omitempty"`
	// FailedOps counts operations that errored per agent (dropped from
	// Writes/Reads); live campaigns see these under rate limiting or
	// transient faults.
	FailedOps map[AgentID]int `json:"failed_ops,omitempty"`
	// SkippedOps counts operations not attempted (or rejected locally)
	// because the agent's endpoint was unhealthy — its circuit breaker
	// open. Skips are collection faults, distinct from failures: no
	// request was issued.
	SkippedOps map[AgentID]int `json:"skipped_ops,omitempty"`
	// RetriedOps counts extra attempts the resilience layer spent per
	// agent recovering transient faults during the test.
	RetriedOps map[AgentID]int `json:"retried_ops,omitempty"`
	// BreakerTrips counts circuit-breaker openings per agent during the
	// test.
	BreakerTrips map[AgentID]int `json:"breaker_trips,omitempty"`
	// ChaosActive labels the chaos-schedule windows (partitions,
	// outages, overloads) in force when the test started, so analyses
	// can correlate anomaly spikes with injected chaos. Empty on
	// undisturbed tests.
	ChaosActive []string `json:"chaos_active,omitempty"`
}

// CollectionFaults sums failed and skipped operations across agents —
// the trace's collection-fault count (operations the paper "dropped,
// but accounted").
func (t *TestTrace) CollectionFaults() int {
	n := 0
	for _, c := range t.FailedOps {
		n += c
	}
	for _, c := range t.SkippedOps {
		n += c
	}
	return n
}

// Corrected converts an agent-local timestamp to reference time using the
// trace's clock deltas. Unknown agents get no correction.
func (t *TestTrace) Corrected(agent AgentID, local time.Time) time.Time {
	return local.Add(t.Deltas[agent])
}

// WritesByAgent returns each agent's writes in issue order.
func (t *TestTrace) WritesByAgent() map[AgentID][]Write {
	out := make(map[AgentID][]Write, t.Agents)
	for _, w := range t.Writes {
		out[w.Agent] = append(out[w.Agent], w)
	}
	for _, ws := range out {
		sortWrites(ws)
	}
	return out
}

// ReadsByAgent returns each agent's reads in invocation order.
func (t *TestTrace) ReadsByAgent() map[AgentID][]Read {
	out := make(map[AgentID][]Read, t.Agents)
	for _, r := range t.Reads {
		out[r.Agent] = append(out[r.Agent], r)
	}
	for _, rs := range out {
		sortReads(rs)
	}
	return out
}

// WriteByID returns the write with the given id, if present.
func (t *TestTrace) WriteByID(id WriteID) (Write, bool) {
	for _, w := range t.Writes {
		if w.ID == id {
			return w, true
		}
	}
	return Write{}, false
}

// AgentIDs returns 1..Agents.
func (t *TestTrace) AgentIDs() []AgentID {
	out := make([]AgentID, t.Agents)
	for i := range out {
		out[i] = AgentID(i + 1)
	}
	return out
}

// Validate performs basic structural checks on the trace.
func (t *TestTrace) Validate() error {
	if t.Agents <= 0 {
		return fmt.Errorf("trace %d: non-positive agent count %d", t.TestID, t.Agents)
	}
	seen := make(map[WriteID]bool, len(t.Writes))
	for _, w := range t.Writes {
		if w.ID == "" {
			return fmt.Errorf("trace %d: write with empty id", t.TestID)
		}
		if seen[w.ID] {
			return fmt.Errorf("trace %d: duplicate write id %q", t.TestID, w.ID)
		}
		seen[w.ID] = true
		if w.Agent < 1 || int(w.Agent) > t.Agents {
			return fmt.Errorf("trace %d: write %q from unknown agent %d", t.TestID, w.ID, w.Agent)
		}
		if w.Returned.Before(w.Invoked) {
			return fmt.Errorf("trace %d: write %q returned before invoked", t.TestID, w.ID)
		}
	}
	for i, r := range t.Reads {
		if r.Agent < 1 || int(r.Agent) > t.Agents {
			return fmt.Errorf("trace %d: read %d from unknown agent %d", t.TestID, i, r.Agent)
		}
		if r.Returned.Before(r.Invoked) {
			return fmt.Errorf("trace %d: read %d returned before invoked", t.TestID, i)
		}
	}
	if t.Agents > maxUnnamedAgents {
		if named := t.namedAgents(); t.Agents > named {
			return fmt.Errorf("trace %d: declares %d agents but names only %d in its clock deltas, writes and reads (a count above %d must be backed by the record)",
				t.TestID, t.Agents, named, maxUnnamedAgents)
		}
	}
	return nil
}

// maxUnnamedAgents is the largest agent count a trace may declare without
// naming every one of them. ReadsByAgent, AgentIDs and the per-pair
// divergence rows size and loop by the declared count; above this bound
// the count must be matched by agents the record itself mentions, so
// their cost follows the record's length and not a number it merely
// states. Below it, records that name nobody (the fixtures, a test where
// every operation failed) keep loading.
const maxUnnamedAgents = 64

// namedAgents counts the distinct agents in 1..Agents that the trace
// mentions in a clock delta, a write or a read.
func (t *TestTrace) namedAgents() int {
	mentions := len(t.Deltas) + len(t.Writes) + len(t.Reads)
	seen := make(map[AgentID]struct{}, min(t.Agents, mentions))
	note := func(a AgentID) {
		if a >= 1 && int(a) <= t.Agents {
			seen[a] = struct{}{}
		}
	}
	for a := range t.Deltas {
		note(a)
	}
	for _, w := range t.Writes {
		note(w.Agent)
	}
	for _, r := range t.Reads {
		note(r.Agent)
	}
	return len(seen)
}

func sortWrites(ws []Write) {
	slices.SortStableFunc(ws, func(a, b Write) int { return CompareWrites(&a, &b) })
}

// CompareWrites orders one agent's writes by issue order: Seq, then
// invocation time.
func CompareWrites(a, b *Write) int {
	if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
		return c
	}
	return a.Invoked.Compare(b.Invoked)
}

func sortReads(rs []Read) {
	slices.SortStableFunc(rs, func(a, b Read) int { return CompareReads(&a, &b) })
}

// CompareReads orders one agent's reads by invocation time.
func CompareReads(a, b *Read) int { return a.Invoked.Compare(b.Invoked) }

// GroupByService buckets traces by their service name, preserving input
// order within each bucket.
func GroupByService(traces []*TestTrace) map[string][]*TestTrace {
	out := make(map[string][]*TestTrace)
	for _, t := range traces {
		out[t.Service] = append(out[t.Service], t)
	}
	return out
}

// ServiceNames returns the sorted service names present in traces.
func ServiceNames(traces []*TestTrace) []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range traces {
		if !seen[t.Service] {
			seen[t.Service] = true
			out = append(out, t.Service)
		}
	}
	sort.Strings(out)
	return out
}
