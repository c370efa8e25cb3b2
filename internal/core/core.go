// Package core implements the consistency-anomaly definitions of Section
// III of "Characterizing the Consistency of Online Services" (DSN 2016)
// as checkers over collected test traces.
//
// Six anomalies are covered. Four are session-guarantee violations —
// Read Your Writes, Monotonic Writes, Monotonic Reads and Writes Follows
// Reads — detected per observing agent. Two are divergence anomalies
// between pairs of agents — Content Divergence and Order Divergence —
// together with their quantitative counterparts, the content and order
// divergence windows, computed on the clock-delta-corrected global
// timeline exactly as Section IV prescribes.
//
// All checkers are pure functions over trace.TestTrace values, so the
// same code path analyzes simulator output and live-collected JSONL.
package core

import (
	"fmt"

	"conprobe/internal/trace"
)

// Anomaly enumerates the consistency anomalies of Section III.
type Anomaly int

// The anomalies, in the order the paper defines them.
const (
	ReadYourWrites Anomaly = iota + 1
	MonotonicWrites
	MonotonicReads
	WritesFollowsReads
	ContentDivergence
	OrderDivergence
)

// SessionAnomalies lists the four session-guarantee anomalies.
func SessionAnomalies() []Anomaly {
	return []Anomaly{ReadYourWrites, MonotonicWrites, MonotonicReads, WritesFollowsReads}
}

// DivergenceAnomalies lists the two divergence anomalies.
func DivergenceAnomalies() []Anomaly {
	return []Anomaly{ContentDivergence, OrderDivergence}
}

// AllAnomalies lists every anomaly in definition order.
func AllAnomalies() []Anomaly {
	return append(SessionAnomalies(), DivergenceAnomalies()...)
}

// String returns the paper's name for the anomaly.
func (a Anomaly) String() string {
	switch a {
	case ReadYourWrites:
		return "read your writes"
	case MonotonicWrites:
		return "monotonic writes"
	case MonotonicReads:
		return "monotonic reads"
	case WritesFollowsReads:
		return "writes follows reads"
	case ContentDivergence:
		return "content divergence"
	case OrderDivergence:
		return "order divergence"
	default:
		return fmt.Sprintf("anomaly(%d)", int(a))
	}
}

// Violation is one detected occurrence of an anomaly.
type Violation struct {
	Anomaly Anomaly
	// Agent is the observing agent: the reader whose read exposed the
	// anomaly (for session guarantees), or the first agent of the
	// diverging pair.
	Agent trace.AgentID
	// Other is the second agent of a diverging pair; zero for session
	// anomalies.
	Other trace.AgentID
	// ReadIndex is the index (within the observing agent's read sequence)
	// of the read that exposed the anomaly. For divergence anomalies it
	// refers to Agent's read.
	ReadIndex int
	// Write is the offending write: the one missing or observed out of
	// order. Write2, when set, is its counterpart (the later write of a
	// monotonic-writes pair, or the write only the other agent saw).
	Write  trace.WriteID
	Write2 trace.WriteID
}

// CheckTest runs every checker applicable to the trace's test kind and
// returns all detected violations. Test 1 exposes the session guarantees;
// Test 2 exposes divergence; both kinds are checked for everything, as any
// trace can in principle exhibit any anomaly.
func CheckTest(tr *trace.TestTrace) []Violation {
	ix := NewIndex(tr)
	for a := ReadYourWrites; a <= OrderDivergence; a++ {
		ix.Check(a) // appends to ix.violations
	}
	return ix.violations
}

// Check returns the violations of one anomaly, as the Check function of
// that name does. The result is the index's own memory, good until the
// next Reset.
func (ix *Index) Check(a Anomaly) []Violation {
	start := len(ix.violations)
	switch a {
	case ReadYourWrites, MonotonicWrites, MonotonicReads, WritesFollowsReads:
		ix.session(a)
	case ContentDivergence, OrderDivergence:
		ix.divergence(a)
	}
	if len(ix.violations) == start {
		return nil
	}
	// The capacity is cut: the next Check appends right behind.
	return ix.violations[start:len(ix.violations):len(ix.violations)]
}

// ByAnomaly groups violations by anomaly type.
func ByAnomaly(vs []Violation) map[Anomaly][]Violation {
	out := make(map[Anomaly][]Violation)
	for _, v := range vs {
		out[v.Anomaly] = append(out[v.Anomaly], v)
	}
	return out
}

// String renders a violation for logs and live monitoring output.
func (v Violation) String() string {
	switch v.Anomaly {
	case ContentDivergence, OrderDivergence:
		if v.Write != "" {
			return fmt.Sprintf("%s between agents %d and %d (%s vs %s)",
				v.Anomaly, v.Agent, v.Other, v.Write, v.Write2)
		}
		return fmt.Sprintf("%s between agents %d and %d", v.Anomaly, v.Agent, v.Other)
	case MonotonicWrites, WritesFollowsReads:
		return fmt.Sprintf("%s at agent %d read #%d: %s observed without/after %s",
			v.Anomaly, v.Agent, v.ReadIndex, v.Write2, v.Write)
	default:
		return fmt.Sprintf("%s at agent %d read #%d: %s missing",
			v.Anomaly, v.Agent, v.ReadIndex, v.Write)
	}
}
