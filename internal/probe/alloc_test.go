package probe

import (
	"context"
	"runtime"
	"testing"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// secondTest2Overhead runs two Test 2 instances of readsPerAgent reads per
// agent on one runner and returns how many heap objects the second one
// allocated beyond one per read it recorded.
func secondTest2Overhead(t *testing.T, svcName string, readsPerAgent int) int {
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
	var overhead int
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
			overhead = int(after.Mallocs-before.Mallocs) - len(tr.Reads)
			sim.Sleep(cfg.Test2.Gap)
		}
	})
	sim.Wait()
	return overhead
}

// TestTest2AllocatesOncePerRead gates the whole read path from the
// runner down: a Test 2 on a warm runner allocates one object per read —
// the posts the service hands back — plus a per-test overhead (the trace,
// its clock-sync maps, agent goroutines, replication timers, a new block
// of observed IDs now and then) that is the same whether agents read 15 or
// 45 times. A copy put back on the read path costs at least 45 objects
// at 15 reads per agent and 135 at 45, which no single bound absorbs.
func TestTest2AllocatesOncePerRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const perTestOverhead = 120
	for _, name := range service.ProfileNames() {
		for _, reads := range []int{15, 45} {
			if got := secondTest2Overhead(t, name, reads); got > perTestOverhead {
				t.Errorf("%s, %d reads per agent: second Test 2 allocated %d objects beyond one per read, want at most %d",
					name, reads, got, perTestOverhead)
			}
		}
	}
}
