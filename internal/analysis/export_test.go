package analysis

import (
	"encoding/json"
	"sort"

	"conprobe/internal/core"
)

// MarshalSnapshot is Snapshot as it was before AppendSnapshot: build the
// aggSnapshot and reflect over it. It is the oracle the append encoder
// is held to.
func MarshalSnapshot(a *Aggregator) ([]byte, error) {
	r := a.rep
	snap := aggSnapshot{
		Version:    snapshotVersion,
		Service:    r.Service,
		Test1Count: r.Test1Count,
		Test2Count: r.Test2Count,
		Reads:      r.TotalReads,
		Writes:     r.TotalWrites,
		Collection: r.Collection,
	}
	for _, anomaly := range core.SessionAnomalies() {
		s := r.Session[anomaly]
		ss := sessionSnapshot{
			Anomaly:          int(anomaly),
			TestsTotal:       s.TestsTotal,
			TestsWithAnomaly: s.TestsWithAnomaly,
		}
		for ag, counts := range s.PerTestCounts {
			ss.PerTest = append(ss.PerTest, agentCounts{Agent: int(ag), Counts: counts})
		}
		sort.Slice(ss.PerTest, func(i, j int) bool { return ss.PerTest[i].Agent < ss.PerTest[j].Agent })
		for combo, n := range s.Combos {
			ss.Combos = append(ss.Combos, comboCount{Combo: combo, Count: n})
		}
		sort.Slice(ss.Combos, func(i, j int) bool { return ss.Combos[i].Combo < ss.Combos[j].Combo })
		snap.Session = append(snap.Session, ss)
	}
	for _, anomaly := range core.DivergenceAnomalies() {
		d := r.Divergence[anomaly]
		ds := divergSnapshot{
			Anomaly:          int(anomaly),
			TestsTotal:       d.TestsTotal,
			TestsWithAnomaly: d.TestsWithAnomaly,
		}
		for pair, ps := range d.PerPair {
			ds.PerPair = append(ds.PerPair, pairSnap{
				A:                int(pair.A),
				B:                int(pair.B),
				TestsTotal:       ps.TestsTotal,
				TestsWithAnomaly: ps.TestsWithAnomaly,
				Windows:          ps.Windows,
				NotConverged:     ps.NotConverged,
			})
		}
		sort.Slice(ds.PerPair, func(i, j int) bool {
			if ds.PerPair[i].A != ds.PerPair[j].A {
				return ds.PerPair[i].A < ds.PerPair[j].A
			}
			return ds.PerPair[i].B < ds.PerPair[j].B
		})
		snap.Divergence = append(snap.Divergence, ds)
	}
	return json.Marshal(snap)
}
