package probe

import (
	"context"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/chaos"
	"conprobe/internal/core"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
)

func hasChaosLabel(labels []string, want string) bool {
	for _, l := range labels {
		if l == want {
			return true
		}
	}
	return false
}

// TestChaosPartitionElevatesDivergence is the scripted-fault regression:
// a chaos partition between the two fbgroup data centers must raise
// content divergence for the Test 2 instances that start inside the
// window, and divergence must recover for the instances after the heal.
// The trace's ChaosActive stamp is the ground truth for the split.
func TestChaosPartitionElevatesDivergence(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	healAt := 37 * time.Minute
	sched := &chaos.Schedule{Events: []chaos.Event{{
		Kind:  chaos.KindPartition,
		A:     simnet.DCEast,
		B:     simnet.DCAsia,
		At:    20 * time.Minute,
		Until: healAt,
	}}}
	// 12 Test 2 instances at a ~5.7-minute cadence span roughly 68
	// virtual minutes, so the window catches the middle instances and
	// leaves clean instances on both sides. Keeping the count below 20
	// avoids the built-in fbgroup Tokyo fault, which would contaminate
	// the clean group.
	res, err := SimulateConcurrent(context.Background(), Options{
		Workload: Workload{
			Service:    service.NameFBGroup,
			Test2Count: 12,
			Seed:       7,
			Start:      start,
		},
		Engine: Engine{Lanes: 1},
		Chaos:  sched,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	label := "partition(dc-asia,dc-east)"
	var during, clean, healed []*trace.TestTrace
	for _, tr := range res.Traces {
		if hasChaosLabel(tr.ChaosActive, label) {
			during = append(during, tr)
			continue
		}
		if len(tr.ChaosActive) != 0 {
			t.Fatalf("test %d: unexpected chaos labels %v", tr.TestID, tr.ChaosActive)
		}
		clean = append(clean, tr)
		if !tr.Started.Before(start.Add(healAt)) {
			healed = append(healed, tr)
		}
	}
	if len(during) < 2 {
		t.Fatalf("only %d traces inside the partition window; the schedule missed the campaign", len(during))
	}
	if len(healed) < 2 {
		t.Fatalf("only %d traces after the heal; the window swallowed the campaign tail", len(healed))
	}

	prevalence := func(group []*trace.TestTrace) float64 {
		return analysis.Analyze(service.NameFBGroup, group).Divergence[core.ContentDivergence].Prevalence()
	}
	duringPrev, cleanPrev, healedPrev := prevalence(during), prevalence(clean), prevalence(healed)
	t.Logf("divergence prevalence: during=%.0f%% (%d tests) clean=%.0f%% (%d tests) healed=%.0f%% (%d tests)",
		duringPrev, len(during), cleanPrev, len(clean), healedPrev, len(healed))
	if duringPrev < 50 {
		t.Errorf("partition window divergence prevalence %.0f%%, want >= 50%%", duringPrev)
	}
	if cleanPrev > 10 {
		t.Errorf("clean-window divergence prevalence %.0f%%, want <= 10%%", cleanPrev)
	}
	if healedPrev > 10 {
		t.Errorf("post-heal divergence prevalence %.0f%%, want <= 10%% (no recovery)", healedPrev)
	}
	if duringPrev <= cleanPrev {
		t.Errorf("partition did not elevate divergence: during=%.0f%% clean=%.0f%%", duringPrev, cleanPrev)
	}
}
