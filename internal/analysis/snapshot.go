package analysis

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"conprobe/internal/core"
	"conprobe/internal/jsonappend"
	"conprobe/internal/trace"
)

// Snapshot serialization for the crash-safe checkpoint path: an
// Aggregator's entire state flattened into sorted slices, so the
// encoding is deterministic (maps are never marshaled directly) and a
// restored Aggregator continues producing byte-identical Reports.
//
// The snapshot schema is internal to one binary: a checkpoint is read
// back by the same build that wrote it, so no cross-version migration
// is attempted beyond the version tag check.

// snapshotVersion guards against feeding a checkpoint written by an
// incompatible schema into RestoreAggregator.
const snapshotVersion = 1

type aggSnapshot struct {
	Version    int               `json:"version"`
	Service    string            `json:"service"`
	Test1Count int               `json:"test1_count"`
	Test2Count int               `json:"test2_count"`
	Reads      int               `json:"reads"`
	Writes     int               `json:"writes"`
	Collection CollectionStats   `json:"collection"`
	Session    []sessionSnapshot `json:"session"`
	Divergence []divergSnapshot  `json:"divergence"`
}

type sessionSnapshot struct {
	Anomaly          int           `json:"anomaly"`
	TestsTotal       int           `json:"tests_total"`
	TestsWithAnomaly int           `json:"tests_with_anomaly"`
	PerTest          []agentCounts `json:"per_test,omitempty"`
	Combos           []comboCount  `json:"combos,omitempty"`
}

type agentCounts struct {
	Agent  int   `json:"agent"`
	Counts []int `json:"counts"`
}

type comboCount struct {
	Combo string `json:"combo"`
	Count int    `json:"count"`
}

type divergSnapshot struct {
	Anomaly          int        `json:"anomaly"`
	TestsTotal       int        `json:"tests_total"`
	TestsWithAnomaly int        `json:"tests_with_anomaly"`
	PerPair          []pairSnap `json:"per_pair,omitempty"`
}

type pairSnap struct {
	A                int             `json:"a"`
	B                int             `json:"b"`
	TestsTotal       int             `json:"tests_total"`
	TestsWithAnomaly int             `json:"tests_with_anomaly"`
	Windows          []time.Duration `json:"windows,omitempty"`
	NotConverged     int             `json:"not_converged"`
}

// Snapshot serializes the aggregator's complete state. The encoding is
// deterministic: equal aggregator states always produce equal bytes.
func (a *Aggregator) Snapshot() ([]byte, error) { return a.AppendSnapshot(nil), nil }

// AppendSnapshot appends Snapshot's encoding to dst: what json.Marshal
// writes for the aggSnapshot of the aggregator's state, without building
// one. The checkpoint journal snapshots a one-test aggregator into every
// frame it writes.
func (a *Aggregator) AppendSnapshot(dst []byte) []byte {
	r := a.rep
	b := appendInt(dst, `{"version":`, snapshotVersion)
	b = jsonappend.String(append(b, `,"service":`...), r.Service)
	b = appendInt(b, `,"test1_count":`, r.Test1Count)
	b = appendInt(b, `,"test2_count":`, r.Test2Count)
	b = appendInt(b, `,"reads":`, r.TotalReads)
	b = appendInt(b, `,"writes":`, r.TotalWrites)
	b = appendInt(b, `,"collection":{"FailedOps":`, r.Collection.FailedOps)
	b = appendInt(b, `,"SkippedOps":`, r.Collection.SkippedOps)
	b = appendInt(b, `,"RetriedOps":`, r.Collection.RetriedOps)
	b = appendInt(b, `,"BreakerTrips":`, r.Collection.BreakerTrips)
	b = appendInt(b, `,"TestsWithFaults":`, r.Collection.TestsWithFaults)

	b = append(b, `},"session":[`...)
	for i, anomaly := range core.SessionAnomalies() {
		s := r.Session[anomaly]
		b = appendTally(b, i, anomaly, s.TestsTotal, s.TestsWithAnomaly)
		if len(s.PerTestCounts) > 0 {
			var few [8]trace.AgentID
			for j, ag := range sortedKeys(few[:0], s.PerTestCounts, cmp.Compare[trace.AgentID]) {
				b = append(b, listSep(j, `,"per_test":[`)...)
				b = appendInt(b, `{"agent":`, int(ag))
				b = appendInts(append(b, `,"counts":`...), s.PerTestCounts[ag])
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		if len(s.Combos) > 0 {
			var few [8]string
			for j, combo := range sortedKeys(few[:0], s.Combos, strings.Compare) {
				b = append(b, listSep(j, `,"combos":[`)...)
				b = jsonappend.String(append(b, `{"combo":`...), combo)
				b = appendInt(b, `,"count":`, s.Combos[combo])
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}

	b = append(b, `],"divergence":[`...)
	for i, anomaly := range core.DivergenceAnomalies() {
		d := r.Divergence[anomaly]
		b = appendTally(b, i, anomaly, d.TestsTotal, d.TestsWithAnomaly)
		if len(d.PerPair) > 0 {
			var few [8]core.Pair
			for j, pair := range sortedKeys(few[:0], d.PerPair, comparePairs) {
				ps := d.PerPair[pair]
				b = append(b, listSep(j, `,"per_pair":[`)...)
				b = appendInt(b, `{"a":`, int(pair.A))
				b = appendInt(b, `,"b":`, int(pair.B))
				b = appendInt(b, `,"tests_total":`, ps.TestsTotal)
				b = appendInt(b, `,"tests_with_anomaly":`, ps.TestsWithAnomaly)
				if len(ps.Windows) > 0 {
					b = appendInts(append(b, `,"windows":`...), ps.Windows)
				}
				b = appendInt(b, `,"not_converged":`, ps.NotConverged)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func appendInt(b []byte, key string, n int) []byte {
	return strconv.AppendInt(append(b, key...), int64(n), 10)
}

// appendInts appends a JSON array of integers, null for a nil slice.
func appendInts[T ~int | ~int64](b []byte, ns []T) []byte {
	if ns == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, n := range ns {
		b = strconv.AppendInt(append(b, listSep(i, "")...), int64(n), 10)
	}
	return append(b, ']')
}

// appendTally opens the i-th entry of a per-anomaly list with the three
// fields session and divergence entries share.
func appendTally(b []byte, i int, anomaly core.Anomaly, total, with int) []byte {
	b = appendInt(append(b, listSep(i, "")...), `{"anomaly":`, int(anomaly))
	b = appendInt(b, `,"tests_total":`, total)
	return appendInt(b, `,"tests_with_anomaly":`, with)
}

// listSep is what precedes element i of a list: open ahead of the first,
// a comma ahead of the rest.
func listSep(i int, open string) string {
	if i == 0 {
		return open
	}
	return ","
}

// sortedKeys appends m's keys to buf in cmp order.
func sortedKeys[K comparable, V any](buf []K, m map[K]V, cmp func(a, b K) int) []K {
	for k := range m {
		buf = append(buf, k)
	}
	slices.SortFunc(buf, cmp)
	return buf
}

func comparePairs(x, y core.Pair) int {
	return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
}

// RestoreAggregator rebuilds an Aggregator from a Snapshot. The restored
// aggregator is on a live unregistered trace counter; call Instrument to
// rebind it.
func RestoreAggregator(data []byte) (*Aggregator, error) {
	var snap aggSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("analysis: decoding aggregator snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("analysis: aggregator snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	a := NewAggregator(snap.Service)
	r := a.rep
	r.Test1Count = snap.Test1Count
	r.Test2Count = snap.Test2Count
	r.TotalReads = snap.Reads
	r.TotalWrites = snap.Writes
	r.Collection = snap.Collection
	for _, ss := range snap.Session {
		s := r.Session[core.Anomaly(ss.Anomaly)]
		if s == nil {
			return nil, fmt.Errorf("analysis: snapshot names unknown session anomaly %d", ss.Anomaly)
		}
		s.TestsTotal = ss.TestsTotal
		s.TestsWithAnomaly = ss.TestsWithAnomaly
		for _, ac := range ss.PerTest {
			s.PerTestCounts[trace.AgentID(ac.Agent)] = ac.Counts
		}
		for _, cc := range ss.Combos {
			s.Combos[cc.Combo] = cc.Count
		}
	}
	for _, ds := range snap.Divergence {
		d := r.Divergence[core.Anomaly(ds.Anomaly)]
		if d == nil {
			return nil, fmt.Errorf("analysis: snapshot names unknown divergence anomaly %d", ds.Anomaly)
		}
		d.TestsTotal = ds.TestsTotal
		d.TestsWithAnomaly = ds.TestsWithAnomaly
		for _, ps := range ds.PerPair {
			pair := core.Pair{A: trace.AgentID(ps.A), B: trace.AgentID(ps.B)}
			d.PerPair[pair] = &PairStats{
				Pair:             pair,
				TestsTotal:       ps.TestsTotal,
				TestsWithAnomaly: ps.TestsWithAnomaly,
				Windows:          ps.Windows,
				NotConverged:     ps.NotConverged,
			}
		}
	}
	return a, nil
}
