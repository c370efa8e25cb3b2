package probe

import (
	"context"
	"runtime"
	"testing"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// secondTest2Allocs runs two Test 2 instances of readsPerAgent reads per
// agent on one runner and returns how many heap objects the second one
// allocated.
func secondTest2Allocs(t *testing.T, svcName string, readsPerAgent int) int {
	t.Helper()
	sim := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1)
	prof, err := service.ProfileByName(svcName)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.NewSimulated(sim, net, prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := CampaignFor(svcName, DefaultAgents(sim, maxSkew, 3), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Test2.ReadsPerAgent = readsPerAgent
	runner, err := NewRunner(sim, net, svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var allocs int
	sim.Go(func() {
		var before, after runtime.MemStats
		for id := 1; id <= 2; id++ {
			runtime.ReadMemStats(&before)
			tr, err := runner.RunTest2(context.Background(), id)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Error(err)
				return
			}
			if got, want := len(tr.Reads), len(cfg.Agents)*readsPerAgent; got != want {
				t.Errorf("test %d recorded %d reads, want %d", id, got, want)
			}
			allocs = int(after.Mallocs - before.Mallocs)
			sim.Sleep(cfg.Test2.Gap)
		}
	})
	sim.Wait()
	return allocs
}

// TestTest2AllocationBudget gates the whole read path from the runner
// down: a Test 2 on a warm runner allocates what the test keeps or needs
// once — the trace, its clock-sync maps, write IDs and bodies, the replica
// renderings, agent closures, a new block of posts or observed IDs now and
// then — and nothing per read, so one budget holds whether agents read 15
// or 45 times (21–37 objects as measured). An object put back on the read
// path costs 45 at 15 reads per agent and 135 at 45.
func TestTest2AllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const perTest = 50
	for _, name := range service.ProfileNames() {
		for _, reads := range []int{15, 45} {
			if got := secondTest2Allocs(t, name, reads); got > perTest {
				t.Errorf("%s, %d reads per agent: second Test 2 allocated %d objects, want at most %d",
					name, reads, got, perTest)
			}
		}
	}
}
