package analysis

import (
	"conprobe/internal/core"
	"conprobe/internal/obs"
	"conprobe/internal/trace"
)

// Aggregator incrementally folds traces into a Report. It is the
// streaming counterpart of Analyze: a campaign engine feeds each trace
// as its test completes, keeping memory bounded by the aggregate
// statistics instead of the full trace slice.
//
// An Aggregator is not safe for concurrent use; the intended pattern is
// one Aggregator per producer (per lane of a concurrent campaign), each
// fed lock-free from its own goroutine, merged with Merge once all
// producers are done.
type Aggregator struct {
	rep *Report
	// ix is re-prepared for every trace added, and diverged cleared for
	// every divergence anomaly of one: both keep what they have grown.
	ix       core.Index
	diverged map[core.Pair]bool
	// mTraces counts traces folded in; NewAggregator binds it to a nil
	// scope (live, unregistered) and Instrument rebinds it.
	mTraces *obs.Counter
}

// NewAggregator returns an empty Aggregator for one service's campaign.
func NewAggregator(serviceName string) *Aggregator {
	r := &Report{
		Service:    serviceName,
		Session:    make(map[core.Anomaly]*SessionStats, 4),
		Divergence: make(map[core.Anomaly]*DivergenceStats, 2),
	}
	for _, a := range core.SessionAnomalies() {
		r.Session[a] = &SessionStats{
			Anomaly:       a,
			PerTestCounts: make(map[trace.AgentID][]int),
			Combos:        make(map[string]int),
		}
	}
	for _, a := range core.DivergenceAnomalies() {
		r.Divergence[a] = &DivergenceStats{
			Anomaly: a,
			PerPair: make(map[core.Pair]*PairStats),
		}
	}
	return &Aggregator{
		rep:      r,
		diverged: make(map[core.Pair]bool),
		mTraces:  (*obs.Scope)(nil).Counter("traces_total", ""),
	}
}

// Instrument registers the aggregator's trace counter under sc
// (traces_total). Call before the first Add; a nil scope leaves the
// aggregator on a live unregistered counter.
func (a *Aggregator) Instrument(sc *obs.Scope) {
	a.mTraces = sc.Counter("traces_total", "Traces folded into the streaming aggregate.")
}

// Add folds one trace into the aggregate: checker output, operation
// counts and collection-fault accounting. The trace is not retained.
func (a *Aggregator) Add(tr *trace.TestTrace) {
	a.mTraces.Inc()
	r := a.rep
	r.TotalReads += len(tr.Reads)
	r.TotalWrites += len(tr.Writes)
	for _, n := range tr.FailedOps {
		r.Collection.FailedOps += n
	}
	for _, n := range tr.SkippedOps {
		r.Collection.SkippedOps += n
	}
	for _, n := range tr.RetriedOps {
		r.Collection.RetriedOps += n
	}
	for _, n := range tr.BreakerTrips {
		r.Collection.BreakerTrips += n
	}
	if tr.CollectionFaults() > 0 {
		r.Collection.TestsWithFaults++
	}
	// One index serves every checker and window scan of the trace.
	switch tr.Kind {
	case trace.Test1:
		r.Test1Count++
		a.analyzeTest1(a.ix.Reset(tr))
	case trace.Test2:
		r.Test2Count++
		a.analyzeTest2(a.ix.Reset(tr))
	}
}

// AddDelta folds one trace into the aggregate as Add does and leaves in
// delta the aggregate of that trace alone, running the checkers once: delta
// is reset, fed the trace and merged in. The checkpoint journal records
// delta.
func (a *Aggregator) AddDelta(tr *trace.TestTrace, delta *Aggregator) {
	delta.Reset()
	delta.Add(tr)
	a.mTraces.Inc()
	a.Merge(delta)
}

// Reset empties the aggregate, keeping its service, its counter binding
// and its maps: a caller that snapshots one test at a time reuses one
// aggregator instead of building the ten maps of a new one per test.
func (a *Aggregator) Reset() {
	r := a.rep
	*r = Report{Service: r.Service, Session: r.Session, Divergence: r.Divergence}
	for _, s := range r.Session {
		s.TestsTotal, s.TestsWithAnomaly = 0, 0
		clear(s.PerTestCounts)
		clear(s.Combos)
	}
	for _, d := range r.Divergence {
		d.TestsTotal, d.TestsWithAnomaly = 0, 0
		clear(d.PerPair)
	}
}

// Merge folds another aggregator's statistics into this one. The merged
// distributions (per-agent count samples, per-pair window samples) are
// appended in call order, so merging lane aggregators in lane order
// yields a deterministic Report regardless of execution interleaving.
// Merge copies what it takes: other may be reset and used again.
func (a *Aggregator) Merge(other *Aggregator) {
	r, o := a.rep, other.rep
	if r.Service == "" {
		r.Service = o.Service
	}
	r.Test1Count += o.Test1Count
	r.Test2Count += o.Test2Count
	r.TotalReads += o.TotalReads
	r.TotalWrites += o.TotalWrites
	r.Collection.FailedOps += o.Collection.FailedOps
	r.Collection.SkippedOps += o.Collection.SkippedOps
	r.Collection.RetriedOps += o.Collection.RetriedOps
	r.Collection.BreakerTrips += o.Collection.BreakerTrips
	r.Collection.TestsWithFaults += o.Collection.TestsWithFaults

	for anomaly, os := range o.Session {
		s := r.Session[anomaly]
		s.TestsTotal += os.TestsTotal
		s.TestsWithAnomaly += os.TestsWithAnomaly
		for ag, counts := range os.PerTestCounts {
			s.PerTestCounts[ag] = append(s.PerTestCounts[ag], counts...)
		}
		for combo, n := range os.Combos {
			s.Combos[combo] += n
		}
	}
	for anomaly, od := range o.Divergence {
		d := r.Divergence[anomaly]
		d.TestsTotal += od.TestsTotal
		d.TestsWithAnomaly += od.TestsWithAnomaly
		for pair, ops := range od.PerPair {
			ps := d.PerPair[pair]
			if ps == nil {
				ps = &PairStats{Pair: pair}
				d.PerPair[pair] = ps
			}
			ps.TestsTotal += ops.TestsTotal
			ps.TestsWithAnomaly += ops.TestsWithAnomaly
			ps.Windows = append(ps.Windows, ops.Windows...)
			ps.NotConverged += ops.NotConverged
		}
	}
}

// Report returns the aggregate built so far. The Aggregator retains
// ownership: further Add or Merge calls keep mutating the returned
// Report.
func (a *Aggregator) Report() *Report { return a.rep }

// MergeAggregators merges aggs in order into a single Report; nil
// entries (e.g. lanes that never started) are skipped. It returns an
// empty report when every entry is nil.
func MergeAggregators(serviceName string, aggs []*Aggregator) *Report {
	total := NewAggregator(serviceName)
	for _, ag := range aggs {
		if ag != nil {
			total.Merge(ag)
		}
	}
	return total.Report()
}
