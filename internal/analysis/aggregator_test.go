package analysis_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/report"
	"conprobe/internal/trace"
)

// aggregatorCampaign runs one small mixed campaign for aggregator tests.
func aggregatorCampaign(t *testing.T) []*trace.TestTrace {
	t.Helper()
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    "fbfeed",
			Test1Count: 8,
			Test2Count: 8,
			Seed:       11,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Traces
}

// renderJSON canonicalizes a report through the JSON renderer, which
// sorts map keys, so equal reports render to equal bytes.
func renderJSON(t *testing.T, rep *analysis.Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func reportsEqual(t *testing.T, want, got *analysis.Report) {
	t.Helper()
	if w, g := renderJSON(t, want), renderJSON(t, got); w != g {
		t.Fatalf("reports differ:\nwant %s\ngot  %s", w, g)
	}
}

// TestAggregatorMatchesAnalyze checks that streaming Add over the same
// trace sequence reproduces the batch analysis.Analyze report exactly.
func TestAggregatorMatchesAnalyze(t *testing.T) {
	traces := aggregatorCampaign(t)
	want := analysis.Analyze("fbfeed", traces)

	agg := analysis.NewAggregator("fbfeed")
	for _, tr := range traces {
		agg.Add(tr)
	}
	reportsEqual(t, want, agg.Report())
}

// TestAggregatorMergeAcrossLanes checks that splitting the campaign
// across per-lane aggregators and merging them in lane order matches the
// batch report on every scalar statistic, and on the distributions as
// multisets.
func TestAggregatorMergeAcrossLanes(t *testing.T) {
	traces := aggregatorCampaign(t)
	want := analysis.Analyze("fbfeed", traces)

	const lanes = 3
	aggs := make([]*analysis.Aggregator, lanes)
	for i := range aggs {
		aggs[i] = analysis.NewAggregator("fbfeed")
	}
	for i, tr := range traces {
		aggs[i%lanes].Add(tr)
	}
	got := analysis.MergeAggregators("fbfeed", aggs)

	if got.Test1Count != want.Test1Count || got.Test2Count != want.Test2Count {
		t.Fatalf("test counts: got %d/%d want %d/%d",
			got.Test1Count, got.Test2Count, want.Test1Count, want.Test2Count)
	}
	if got.TotalReads != want.TotalReads || got.TotalWrites != want.TotalWrites {
		t.Fatalf("op counts: got %d/%d want %d/%d",
			got.TotalReads, got.TotalWrites, want.TotalReads, want.TotalWrites)
	}
	if got.Collection != want.Collection {
		t.Fatalf("collection stats: got %+v want %+v", got.Collection, want.Collection)
	}
	for anomaly, ws := range want.Session {
		gs := got.Session[anomaly]
		if gs.TestsTotal != ws.TestsTotal || gs.TestsWithAnomaly != ws.TestsWithAnomaly {
			t.Fatalf("%v: got %d/%d want %d/%d", anomaly,
				gs.TestsWithAnomaly, gs.TestsTotal, ws.TestsWithAnomaly, ws.TestsTotal)
		}
		if !reflect.DeepEqual(gs.Combos, ws.Combos) {
			t.Fatalf("%v combos: got %v want %v", anomaly, gs.Combos, ws.Combos)
		}
		for ag, counts := range ws.PerTestCounts {
			if !sameMultisetInts(gs.PerTestCounts[ag], counts) {
				t.Fatalf("%v agent %d counts: got %v want %v", anomaly, ag, gs.PerTestCounts[ag], counts)
			}
		}
	}
	for anomaly, wd := range want.Divergence {
		gd := got.Divergence[anomaly]
		if gd.TestsTotal != wd.TestsTotal || gd.TestsWithAnomaly != wd.TestsWithAnomaly {
			t.Fatalf("%v: got %d/%d want %d/%d", anomaly,
				gd.TestsWithAnomaly, gd.TestsTotal, wd.TestsWithAnomaly, wd.TestsTotal)
		}
		for pair, wps := range wd.PerPair {
			gps := gd.PerPair[pair]
			if gps == nil {
				t.Fatalf("%v missing pair %v", anomaly, pair)
			}
			if gps.TestsTotal != wps.TestsTotal || gps.TestsWithAnomaly != wps.TestsWithAnomaly ||
				gps.NotConverged != wps.NotConverged {
				t.Fatalf("%v pair %v: got %+v want %+v", anomaly, pair, gps, wps)
			}
			if !sameMultisetDurations(gps.Windows, wps.Windows) {
				t.Fatalf("%v pair %v windows: got %v want %v", anomaly, pair, gps.Windows, wps.Windows)
			}
		}
	}
}

// TestAggregatorMergeDeterministicOrder checks that merging the same
// lane aggregators twice (fresh copies, same order) yields bytewise
// identical reports — the determinism contract concurrent campaigns
// rely on.
func TestAggregatorMergeDeterministicOrder(t *testing.T) {
	traces := aggregatorCampaign(t)
	build := func() *analysis.Report {
		aggs := make([]*analysis.Aggregator, 4)
		for i := range aggs {
			aggs[i] = analysis.NewAggregator("fbfeed")
		}
		for i, tr := range traces {
			aggs[i%len(aggs)].Add(tr)
		}
		return analysis.MergeAggregators("fbfeed", aggs)
	}
	if a, b := renderJSON(t, build()), renderJSON(t, build()); a != b {
		t.Fatal("same lane split merged twice produced different reports")
	}
}

// TestMergeAggregatorsSkipsNil checks nil lanes (never started) are
// tolerated.
func TestMergeAggregatorsSkipsNil(t *testing.T) {
	agg := analysis.NewAggregator("svc")
	agg.Add(&trace.TestTrace{Kind: trace.Test1, Agents: 3})
	rep := analysis.MergeAggregators("svc", []*analysis.Aggregator{nil, agg, nil})
	if rep.Test1Count != 1 {
		t.Fatalf("Test1Count = %d, want 1", rep.Test1Count)
	}
	if rep.Service != "svc" {
		t.Fatalf("Service = %q", rep.Service)
	}
}

func sameMultisetInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[int]int)
	for _, v := range a {
		count[v]++
	}
	for _, v := range b {
		count[v]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func sameMultisetDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[time.Duration]int)
	for _, v := range a {
		count[v]++
	}
	for _, v := range b {
		count[v]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// TestWarmAddAllocations: an aggregator keeps one checker index and its
// scratch for life, so folding in a trace like one it has seen costs no
// heap object for a Test 2, divergence windows included, and for a Test 1
// one per session anomaly that several agents observed: the key of their
// combination ("1+3"; a one-byte key costs nothing). (A window sample or a
// per-test count appended to the report grows a slice now and then; over a
// hundred runs that rounds to zero.)
func TestWarmAddAllocations(t *testing.T) {
	var test1, test2 *trace.TestTrace
	keys := 0 // session anomalies of test1 seen by more than one agent
	for _, tr := range aggregatorCampaign(t) {
		rep := analysis.Analyze("fbfeed", []*trace.TestTrace{tr})
		switch {
		case tr.Kind == trace.Test1 && test1 == nil:
			for _, s := range rep.Session {
				for combo := range s.Combos {
					if strings.Contains(combo, "+") {
						keys++
					}
				}
			}
			if keys > 0 {
				test1 = tr
			}
		case tr.Kind == trace.Test2 && test2 == nil && rep.Divergence[core.OrderDivergence].TestsWithAnomaly > 0:
			test2 = tr
		}
	}
	if test1 == nil || test2 == nil {
		t.Fatal("the campaign has no Test 1 with an anomaly two agents saw or no Test 2 with order divergence")
	}
	agg := analysis.NewAggregator("fbfeed")
	for tr, want := range map[*trace.TestTrace]int{test1: keys, test2: 0} {
		agg.Add(tr)
		if n := testing.AllocsPerRun(100, func() { agg.Add(tr) }); int(n) != want {
			t.Errorf("a warm Add of a %v allocates %v times, want %d", tr.Kind, n, want)
		}
	}
}
