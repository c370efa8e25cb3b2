package core_test

import (
	"bytes"
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"

	"conprobe/internal/analysis"
	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/report"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// referenceReport folds traces the way analysis.Aggregator.Add does, but
// takes every violation and window from the reference oracle.
func referenceReport(name string, traces []*trace.TestTrace) *analysis.Report {
	rep := analysis.NewAggregator(name).Report()
	for _, tr := range traces {
		rep.TotalReads += len(tr.Reads)
		rep.TotalWrites += len(tr.Writes)
		for _, n := range tr.FailedOps {
			rep.Collection.FailedOps += n
		}
		for _, n := range tr.SkippedOps {
			rep.Collection.SkippedOps += n
		}
		for _, n := range tr.RetriedOps {
			rep.Collection.RetriedOps += n
		}
		for _, n := range tr.BreakerTrips {
			rep.Collection.BreakerTrips += n
		}
		if tr.CollectionFaults() > 0 {
			rep.Collection.TestsWithFaults++
		}
		switch tr.Kind {
		case trace.Test1:
			rep.Test1Count++
			for _, a := range core.SessionAnomalies() {
				stats := rep.Session[a]
				stats.TestsTotal++
				vs := core.ReferenceCheck(tr, a)
				if len(vs) == 0 {
					continue
				}
				stats.TestsWithAnomaly++
				perAgent := make(map[trace.AgentID]int)
				for _, v := range vs {
					perAgent[v.Agent]++
				}
				var combo []string
				for ag, n := range perAgent {
					stats.PerTestCounts[ag] = append(stats.PerTestCounts[ag], n)
					combo = append(combo, strconv.Itoa(int(ag)))
				}
				sort.Strings(combo) // agents are single digits here
				stats.Combos[strings.Join(combo, "+")]++
			}
		case trace.Test2:
			rep.Test2Count++
			for _, a := range core.DivergenceAnomalies() {
				stats := rep.Divergence[a]
				stats.TestsTotal++
				diverged := make(map[core.Pair]bool)
				for _, v := range core.ReferenceCheck(tr, a) {
					diverged[core.MakePair(v.Agent, v.Other)] = true
				}
				if len(diverged) > 0 {
					stats.TestsWithAnomaly++
				}
				for _, w := range core.ReferenceWindows(tr, a) {
					ps := stats.PerPair[w.Pair]
					if ps == nil {
						ps = &analysis.PairStats{Pair: w.Pair}
						stats.PerPair[w.Pair] = ps
					}
					ps.TestsTotal++
					if diverged[w.Pair] {
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
	}
	return rep
}

// The indexed checkers must change nothing a campaign reports: for every
// built-in profile, the rendered report equals one assembled from the
// reference oracle.
func TestAnalyzeRendersAsTheReferenceOracle(t *testing.T) {
	for _, name := range service.ProfileNames() {
		res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
			Workload: probe.Workload{
				Service:    name,
				Test1Count: 12,
				Test2Count: 12,
				Seed:       18,
			},
			Engine: probe.Engine{Lanes: 1},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := report.WriteReport(&got, analysis.Analyze(res.Service, res.Traces)); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteReport(&want, referenceReport(res.Service, res.Traces)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: report differs from the reference oracle's\n--- got\n%s--- want\n%s", name, &got, &want)
		}
		if got.Len() == 0 {
			t.Errorf("%s: empty report", name)
		}
	}
}
