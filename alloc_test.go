package conprobe_test

import (
	"context"
	"runtime"
	"testing"

	"conprobe"
)

// TestCampaignTestAllocBudget keeps the benchmark's campaign_sim
// allocs_per_op inside tier-1: heap objects per simulated test, taken as
// the difference between a 64- and a 128-test campaign over all four
// profiles so that what a Run costs once (worlds, lanes, the report)
// cancels out. What is left is what a test's trace and report keep (DESIGN
// §11, ≈ 45 as measured); an object per read put back anywhere — posts,
// observed IDs, checker scratch — adds ≈ 70.
func TestCampaignTestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	mallocs := func(perKind int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, name := range conprobe.ProfileNames() {
			_, err := conprobe.Run(context.Background(), conprobe.Options{
				Workload: conprobe.Workload{Service: name, Test1Count: perKind, Test2Count: perKind, Seed: 1},
				Engine:   conprobe.Engine{Parallelism: 1, DiscardTraces: true},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(32) // fills the process-wide pools
	small, large := mallocs(32), mallocs(64)
	const budget = 60
	if perTest := float64(large-small) / (4 * 64); perTest > budget {
		t.Errorf("a simulated test allocates %.1f objects (%d for 4 × 64 tests, %d for 4 × 128), want at most %d",
			perTest, small, large, budget)
	} else {
		t.Logf("%.1f objects per simulated test", perTest)
	}
}
