package analysis

import (
	"sort"

	"conprobe/internal/core"
	"conprobe/internal/trace"
)

// Streak is a maximal run of consecutive tests (by TestID order, within
// one test kind) that all exhibit a given anomaly. The paper used this
// view to attribute Facebook Group's content divergences to a transient
// fault: "9 of which happened across a sequence of tests, where the
// Tokyo agent was unable to observe the operations of other agents".
type Streak struct {
	// Kind is the test protocol the streak occurred in.
	Kind trace.TestKind
	// FirstID and LastID are the trace TestIDs bounding the streak.
	FirstID, LastID int
	// Length is the number of consecutive anomalous tests.
	Length int
	// Agents is the union of agents that observed the anomaly during
	// the streak (for divergence anomalies, both pair members).
	Agents []trace.AgentID
}

// DetectStreaks finds all maximal streaks of the anomaly across the
// traces, evaluated per test kind in TestID order. Only streaks of at
// least minLen tests are returned.
func DetectStreaks(traces []*trace.TestTrace, anomaly core.Anomaly, minLen int) []Streak {
	if minLen < 1 {
		minLen = 1
	}
	byKind := make(map[trace.TestKind][]*trace.TestTrace)
	for _, tr := range traces {
		byKind[tr.Kind] = append(byKind[tr.Kind], tr)
	}
	var out []Streak
	var ix core.Index // re-prepared per trace, growing its buffers once
	for kind, ts := range byKind {
		sort.Slice(ts, func(i, j int) bool { return ts[i].TestID < ts[j].TestID })
		var cur *Streak
		agents := make(map[trace.AgentID]bool)
		flush := func() {
			if cur != nil && cur.Length >= minLen {
				cur.Agents = sortedAgentSet(agents)
				out = append(out, *cur)
			}
			cur = nil
			agents = make(map[trace.AgentID]bool)
		}
		for _, tr := range ts {
			vs := ix.Reset(tr).Check(anomaly)
			if len(vs) == 0 {
				flush()
				continue
			}
			if cur == nil {
				cur = &Streak{Kind: kind, FirstID: tr.TestID}
			}
			cur.LastID = tr.TestID
			cur.Length++
			for _, v := range vs {
				agents[v.Agent] = true
				if v.Other != 0 {
					agents[v.Other] = true
				}
			}
		}
		flush()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].FirstID < out[j].FirstID
	})
	return out
}

func sortedAgentSet(m map[trace.AgentID]bool) []trace.AgentID {
	out := make([]trace.AgentID, 0, len(m))
	for ag := range m {
		out = append(out, ag)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BlockRate is the anomaly rate within one contiguous block of tests.
type BlockRate struct {
	// FirstID and LastID bound the block.
	FirstID, LastID int
	// Tests is the number of tests in the block.
	Tests int
	// WithAnomaly is how many of them exhibit the anomaly.
	WithAnomaly int
}

// Rate returns the block's prevalence in percent.
func (b BlockRate) Rate() float64 {
	if b.Tests == 0 {
		return 0
	}
	return 100 * float64(b.WithAnomaly) / float64(b.Tests)
}

// TimeSeries splits the traces of one kind (in TestID order) into blocks
// of blockSize tests and reports the anomaly rate per block — the view
// used to spot drift or fault windows across a long campaign.
func TimeSeries(traces []*trace.TestTrace, anomaly core.Anomaly, kind trace.TestKind, blockSize int) []BlockRate {
	if blockSize < 1 {
		blockSize = 1
	}
	var ts []*trace.TestTrace
	for _, tr := range traces {
		if tr.Kind == kind {
			ts = append(ts, tr)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].TestID < ts[j].TestID })
	var out []BlockRate
	var ix core.Index
	for start := 0; start < len(ts); start += blockSize {
		end := start + blockSize
		if end > len(ts) {
			end = len(ts)
		}
		b := BlockRate{FirstID: ts[start].TestID, LastID: ts[end-1].TestID, Tests: end - start}
		for _, tr := range ts[start:end] {
			if len(ix.Reset(tr).Check(anomaly)) > 0 {
				b.WithAnomaly++
			}
		}
		out = append(out, b)
	}
	return out
}
