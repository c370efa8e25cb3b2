package conprobe_test

import (
	"context"
	"runtime"
	"testing"

	"conprobe"
)

// TestCampaignTestAllocBudget keeps the benchmark's campaign_sim
// allocs_per_op and alloc_kb_per_op inside tier-1: heap objects and bytes
// per simulated test, taken as the difference between a 64- and a
// 128-test campaign over all four profiles so that what a Run costs once
// (worlds, lanes, the report) cancels out. What is left is what a test
// needs afresh: write IDs and bodies, the store's renderings and the
// copies selection makes (DESIGN §11; ≈ 27.2 objects and ≈ 3.8 KB as
// measured). An object per read put back anywhere — posts, observed IDs,
// checker scratch — adds ≈ 70 objects; a copy of the timeline per read
// adds ≈ 20 KB and no object if carved from blocks; a second copy of
// each rendering, as before the store rendered posts, adds ≈ 0.9 KB; a
// trace allocated per test instead of refilled adds ≈ 7.5 objects and
// ≈ 10 KB.
func TestCampaignTestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(perKind int) (objects, bytes uint64) {
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
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	allocs(32) // fills the process-wide pools
	small, smallBytes := allocs(32)
	large, largeBytes := allocs(64)
	const budget, kbBudget = 40, 6.5
	if perTest := float64(large-small) / (4 * 64); perTest > budget {
		t.Errorf("a simulated test allocates %.1f objects (%d for 4 × 64 tests, %d for 4 × 128), want at most %d",
			perTest, small, large, budget)
	} else {
		t.Logf("%.1f objects per simulated test", perTest)
	}
	if kb := float64(largeBytes-smallBytes) / 1024 / (4 * 64); kb > kbBudget {
		t.Errorf("a simulated test allocates %.1f KB (%d B for 4 × 64 tests, %d B for 4 × 128), want at most %.1f",
			kb, smallBytes, largeBytes, kbBudget)
	} else {
		t.Logf("%.1f KB per simulated test", kb)
	}
}
