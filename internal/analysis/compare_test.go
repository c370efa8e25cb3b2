package analysis

import (
	"context"
	"testing"

	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

func campaign(t *testing.T, svc string, seed int64, tests int) *Report {
	t.Helper()
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    svc,
			Test1Count: tests,
			Test2Count: tests,
			Seed:       seed,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(res.Service, res.Traces)
}

func TestCompareIdenticalCampaigns(t *testing.T) {
	a := campaign(t, service.NameFBGroup, 7, 10)
	cmp := Compare(a, a)
	for anomaly, d := range cmp.Prevalence {
		if d.A != d.B {
			t.Fatalf("%v: identical campaigns differ: %+v", anomaly, d)
		}
		if !d.Compatible() {
			t.Fatalf("%v: identical campaigns incompatible: %+v", anomaly, d)
		}
	}
	for anomaly, ks := range cmp.WindowKS {
		if ks != 0 {
			t.Fatalf("%v: KS distance %v for identical campaigns", anomaly, ks)
		}
	}
}

func TestCompareDistinctServices(t *testing.T) {
	// Blogger (no anomalies) vs FBGroup (93% MW): incompatible on MW.
	a := campaign(t, service.NameBlogger, 7, 15)
	b := campaign(t, service.NameFBGroup, 7, 15)
	cmp := Compare(a, b)
	d := cmp.Prevalence[core.MonotonicWrites]
	if d.A != 0 {
		t.Fatalf("blogger MW prevalence %v", d.A)
	}
	if d.B < 50 {
		t.Fatalf("fbgroup MW prevalence %v", d.B)
	}
	if d.Compatible() {
		t.Fatalf("MW intervals should not overlap: %+v", d)
	}
}

func TestCompareSameServiceDifferentSeeds(t *testing.T) {
	// Two seeds of the same service: prevalences differ slightly but the
	// confidence intervals should overlap for most anomalies.
	a := campaign(t, service.NameFBFeed, 3, 20)
	b := campaign(t, service.NameFBFeed, 4, 20)
	cmp := Compare(a, b)
	compatible := 0
	for _, d := range cmp.Prevalence {
		if d.Compatible() {
			compatible++
		}
	}
	if compatible < 5 {
		t.Fatalf("only %d/6 anomalies compatible across seeds", compatible)
	}
	// Window distributions from the same generator should be close.
	if ks := cmp.WindowKS[core.ContentDivergence]; ks > 0.5 {
		t.Fatalf("CD window KS = %v across seeds", ks)
	}
}

func TestCompareEmptyWindowSets(t *testing.T) {
	a := Analyze("x", nil)
	b := Analyze("y", []*trace.TestTrace{})
	cmp := Compare(a, b)
	if cmp.WindowKS[core.ContentDivergence] != 0 {
		t.Fatal("empty-vs-empty KS should be 0")
	}
}
