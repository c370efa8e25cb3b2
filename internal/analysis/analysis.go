// Package analysis aggregates checker output over campaign traces into
// the quantities the paper reports: per-anomaly prevalence (Figure 3),
// per-test anomaly-count distributions and agent-combination correlation
// (Figures 4-7), pairwise divergence prevalence (Figure 8), and
// divergence-window CDFs (Figures 9-10).
package analysis

import (
	"strconv"
	"strings"
	"time"

	"conprobe/internal/core"
	"conprobe/internal/trace"
)

// Report is the complete analysis of one service's campaign.
type Report struct {
	// Service is the probed service's name.
	Service string
	// Test1Count and Test2Count are how many instances of each test the
	// campaign ran.
	Test1Count, Test2Count int
	// TotalReads and TotalWrites count operations across all tests.
	TotalReads, TotalWrites int
	// Session holds per-anomaly statistics for the four session
	// guarantees, computed over Test 1 traces.
	Session map[core.Anomaly]*SessionStats
	// Divergence holds per-anomaly statistics for the two divergence
	// anomalies, computed over Test 2 traces.
	Divergence map[core.Anomaly]*DivergenceStats
	// Collection accounts the campaign's collection faults, so fault
	// rates are reported alongside anomaly prevalence instead of being
	// silently folded into the data.
	Collection CollectionStats
}

// CollectionStats aggregates collection-health accounting across a
// campaign's traces: operations that failed or were skipped never enter
// Writes/Reads (the paper's "failed reads are dropped, but accounted"),
// and retries/breaker trips quantify how hard the resilience layer
// worked to keep the campaign alive.
type CollectionStats struct {
	// FailedOps is the number of operations that errored after
	// exhausting any retry budget.
	FailedOps int
	// SkippedOps is the number of operations not attempted because an
	// agent's circuit breaker was open.
	SkippedOps int
	// RetriedOps is the number of extra attempts the resilience layer
	// spent recovering transient faults.
	RetriedOps int
	// BreakerTrips is how many times agent circuit breakers opened.
	BreakerTrips int
	// TestsWithFaults is how many tests had at least one failed or
	// skipped operation.
	TestsWithFaults int
}

// AttemptedOps is every operation the campaign tried: successful reads
// and writes plus failures and skips.
func (r *Report) AttemptedOps() int {
	return r.TotalReads + r.TotalWrites + r.Collection.FailedOps + r.Collection.SkippedOps
}

// CollectionFaultRate returns the percentage of attempted operations
// lost to collection faults (failed or skipped).
func (r *Report) CollectionFaultRate() float64 {
	attempted := r.AttemptedOps()
	if attempted == 0 {
		return 0
	}
	return 100 * float64(r.Collection.FailedOps+r.Collection.SkippedOps) / float64(attempted)
}

// SessionStats describes one session-guarantee anomaly across a campaign.
type SessionStats struct {
	// Anomaly identifies the guarantee.
	Anomaly core.Anomaly
	// TestsTotal is the number of Test 1 instances analyzed.
	TestsTotal int
	// TestsWithAnomaly is how many tests had at least one violation.
	TestsWithAnomaly int
	// PerTestCounts maps each agent to the violation counts of the tests
	// in which that agent observed at least one violation (the data
	// behind the "distribution of anomalies per test" panels of Figures
	// 4-7).
	PerTestCounts map[trace.AgentID][]int
	// Combos counts violating tests by the exact set of agents that
	// observed the anomaly, keyed canonically ("1", "1+3", "1+2+3", ...)
	// — the "correlation across locations" panels.
	Combos map[string]int
}

// Prevalence returns the percentage of tests exhibiting the anomaly
// (Figure 3).
func (s *SessionStats) Prevalence() float64 {
	if s.TestsTotal == 0 {
		return 0
	}
	return 100 * float64(s.TestsWithAnomaly) / float64(s.TestsTotal)
}

// DivergenceStats describes one divergence anomaly across a campaign.
type DivergenceStats struct {
	// Anomaly identifies the divergence kind.
	Anomaly core.Anomaly
	// TestsTotal is the number of Test 2 instances analyzed.
	TestsTotal int
	// TestsWithAnomaly is how many tests had divergence between at least
	// one pair of agents.
	TestsWithAnomaly int
	// PerPair breaks the results down by agent pair.
	PerPair map[core.Pair]*PairStats
}

// Prevalence returns the percentage of tests with any divergence.
func (d *DivergenceStats) Prevalence() float64 {
	if d.TestsTotal == 0 {
		return 0
	}
	return 100 * float64(d.TestsWithAnomaly) / float64(d.TestsTotal)
}

// PairStats describes one agent pair's divergence behavior.
type PairStats struct {
	// Pair identifies the agents.
	Pair core.Pair
	// TestsTotal is the number of Test 2 instances analyzed.
	TestsTotal int
	// TestsWithAnomaly counts tests where the pair's reads satisfied the
	// divergence condition (Figure 8 uses the boolean check, so this
	// includes zero-window divergences).
	TestsWithAnomaly int
	// Windows holds, for every test where the pair's divergence window
	// was positive and closed before the test ended, the largest window
	// of that test — the samples behind the CDFs of Figures 9 and 10.
	Windows []time.Duration
	// NotConverged counts tests whose divergence window was still open
	// at the end of the test; the paper excludes these from the CDFs and
	// reports their fraction separately.
	NotConverged int
}

// Prevalence returns the percentage of tests where this pair diverged.
func (p *PairStats) Prevalence() float64 {
	if p.TestsTotal == 0 {
		return 0
	}
	return 100 * float64(p.TestsWithAnomaly) / float64(p.TestsTotal)
}

// ConvergedFraction returns the fraction of window-bearing tests whose
// divergence healed before the test ended.
func (p *PairStats) ConvergedFraction() float64 {
	n := len(p.Windows) + p.NotConverged
	if n == 0 {
		return 1
	}
	return float64(len(p.Windows)) / float64(n)
}

// Analyze runs every checker over the campaign's traces and aggregates
// the results. It is the batch form of the streaming Aggregator: both
// produce identical Reports for the same trace sequence.
func Analyze(serviceName string, traces []*trace.TestTrace) *Report {
	a := NewAggregator(serviceName)
	for _, tr := range traces {
		a.Add(tr)
	}
	return a.Report()
}

func (a *Aggregator) analyzeTest1(ix *core.Index) {
	for _, anomaly := range core.SessionAnomalies() {
		stats := a.rep.Session[anomaly]
		stats.TestsTotal++
		vs := ix.Check(anomaly)
		if len(vs) == 0 {
			continue
		}
		stats.TestsWithAnomaly++
		// The session checkers report agents ascending, so each agent's
		// violations are one run, and the runs spell the canonical key of
		// the set of observing agents ("1+3").
		var buf [32]byte
		combo := buf[:0]
		for len(vs) > 0 {
			ag, n := vs[0].Agent, 1
			for n < len(vs) && vs[n].Agent == ag {
				n++
			}
			vs = vs[n:]
			stats.PerTestCounts[ag] = append(stats.PerTestCounts[ag], n)
			if len(combo) > 0 {
				combo = append(combo, '+')
			}
			combo = strconv.AppendInt(combo, int64(ag), 10)
		}
		stats.Combos[string(combo)]++
	}
}

func (a *Aggregator) analyzeTest2(ix *core.Index) {
	for _, anomaly := range core.DivergenceAnomalies() {
		stats := a.rep.Divergence[anomaly]
		stats.TestsTotal++

		clear(a.diverged)
		for _, v := range ix.Check(anomaly) {
			a.diverged[core.MakePair(v.Agent, v.Other)] = true
		}
		if len(a.diverged) > 0 {
			stats.TestsWithAnomaly++
		}
		for _, w := range ix.Windows(anomaly) {
			ps := stats.PerPair[w.Pair]
			if ps == nil {
				ps = &PairStats{Pair: w.Pair}
				stats.PerPair[w.Pair] = ps
			}
			ps.TestsTotal++
			if a.diverged[w.Pair] {
				ps.TestsWithAnomaly++
			}
			switch {
			case !w.Converged:
				ps.NotConverged++
			case w.Largest > 0:
				ps.Windows = append(ps.Windows, w.Largest)
			}
		}
	}
}

// Histogram buckets per-test violation counts: result[n] is the number of
// tests with exactly n observations (the x-axis of Figures 4-7).
func Histogram(counts []int) map[int]int {
	out := make(map[int]int)
	for _, c := range counts {
		out[c]++
	}
	return out
}

// SortedPairs returns the pairs of a divergence result in canonical
// order.
func (d *DivergenceStats) SortedPairs() []core.Pair {
	return sortedKeys(make([]core.Pair, 0, len(d.PerPair)), d.PerPair, comparePairs)
}

// ExclusiveFraction returns the fraction of violating tests in which
// exactly one agent observed the anomaly — the "local vs global
// phenomenon" measure of Figures 4(c)-7(c).
func (s *SessionStats) ExclusiveFraction() float64 {
	if s.TestsWithAnomaly == 0 {
		return 0
	}
	solo := 0
	for combo, n := range s.Combos {
		if !strings.Contains(combo, "+") {
			solo += n
		}
	}
	return float64(solo) / float64(s.TestsWithAnomaly)
}
