package probe

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// test2Runner builds a runner of Test 2 instances of readsPerAgent reads
// per agent on a fresh simulated world; discard sets DiscardTraces.
func test2Runner(t *testing.T, svcName string, readsPerAgent int, discard bool) (*vtime.Sim, *Runner) {
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
	cfg.DiscardTraces = discard
	runner, err := NewRunner(sim, net, svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, runner
}

// secondTest2Allocs runs two Test 2 instances of readsPerAgent reads per
// agent on one runner and returns how many heap objects the second one
// allocated.
func secondTest2Allocs(t *testing.T, svcName string, readsPerAgent int) int {
	t.Helper()
	sim, runner := test2Runner(t, svcName, readsPerAgent, false)
	cfg := runner.cfg
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

// discardedTest2Allocs runs three Test 2 instances of readsPerAgent reads
// per agent as one discarding lane and returns the heap objects and bytes
// allocated from the second trace's sink to the third's: the gap, and a
// whole Test 2 on a lane that refills its trace.
func discardedTest2Allocs(t *testing.T, svcName string, readsPerAgent int) (objects, bytes uint64) {
	t.Helper()
	sim, runner := test2Runner(t, svcName, readsPerAgent, true)
	stats := make([]runtime.MemStats, 0, 3) // appending allocates nothing
	runner.cfg.Sink = func(tr *trace.TestTrace, _ time.Time) error {
		if got, want := len(tr.Reads), len(runner.cfg.Agents)*readsPerAgent; got != want {
			t.Errorf("test %d recorded %d reads, want %d", tr.TestID, got, want)
		}
		stats = append(stats, runtime.MemStats{})
		runtime.ReadMemStats(&stats[len(stats)-1])
		return nil
	}
	sim.Go(func() {
		if _, err := runner.runSteps(context.Background(), scheduleOf(0, 3, 1)); err != nil {
			t.Error(err)
		}
	})
	sim.Wait()
	if len(stats) != 3 {
		t.Fatalf("%d traces reached the sink, want 3", len(stats))
	}
	return stats[2].Mallocs - stats[1].Mallocs, stats[2].TotalAlloc - stats[1].TotalAlloc
}

// TestDiscardedTest2AllocationBudget gates what a warm discarding lane
// spends on a Test 2: what TestTest2AllocationBudget allows, less the
// trace, its clock-sync maps and its Writes and Reads arrays, which the
// lane refills, and with observed IDs carved from a block the lane gets
// back. What is left is write IDs and bodies, the replica renderings and
// agent closures: 13–26 objects and 1.1–9.5 KB as measured (20–32 and
// 5.9–27.6 KB while each test allocated its trace), one budget at 15 or
// 45 reads per agent with TestTest2AllocationBudget's headroom (× 1.35).
func TestDiscardedTest2AllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const perTest, kbPerTest = 35, 13
	for _, name := range service.ProfileNames() {
		for _, reads := range []int{15, 45} {
			objects, bytes := discardedTest2Allocs(t, name, reads)
			if objects > perTest || bytes > kbPerTest*1024 {
				t.Errorf("%s, %d reads per agent: a warm discarding lane's Test 2 allocated %d objects and %.1f KB, want at most %d and %d KB",
					name, reads, objects, float64(bytes)/1024, perTest, kbPerTest)
			}
		}
	}
}

// TestDiscardingLaneHandsEverySinkOneTrace pins the reuse itself: a
// discarding lane refills the trace of its first test, so the engine's
// sink sees that one *TestTrace for every test, each time with that
// test's ID.
func TestDiscardingLaneHandsEverySinkOneTrace(t *testing.T) {
	opts := engineOpts(3, 3)
	opts.Engine.DiscardTraces = true
	var seen []*trace.TestTrace
	ids := map[int]bool{}
	_, err := SimulateConcurrent(context.Background(), onLanes(opts, 1, 0), nil, func(_ int, tr *trace.TestTrace, _ time.Time, _ map[string]resilience.Snapshot) error {
		seen = append(seen, tr)
		ids[tr.TestID] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 || len(ids) != 6 {
		t.Fatalf("the sink saw %d traces of %d tests, want 6 of 6", len(seen), len(ids))
	}
	for i, tr := range seen {
		if tr != seen[0] {
			t.Fatalf("sink call %d got trace %p, the first got %p: the lane allocated a trace per test", i, tr, seen[0])
		}
	}
}

// TestRunTest2KeepsItsTraces pins that reuse is the discarding lane's
// alone: two RunTest2 calls on a runner with DiscardTraces set return
// distinct traces, and neither changes — not even its observed IDs,
// which share the recorders' blocks — when the runner then runs a
// discarding lane that refills its own trace test after test.
func TestRunTest2KeepsItsTraces(t *testing.T) {
	sim, runner := test2Runner(t, service.NameFBFeed, 15, true)
	encode := func(tr *trace.TestTrace) string {
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	sim.Go(func() {
		ctx := context.Background()
		var traces []*trace.TestTrace
		var want []string
		for _, id := range []int{101, 102} {
			tr, err := runner.RunTest2(ctx, id)
			if err != nil {
				t.Error(err)
				return
			}
			traces, want = append(traces, tr), append(want, encode(tr))
			sim.Sleep(runner.cfg.Test2.Gap)
		}
		if traces[0] == traces[1] {
			t.Error("two RunTest2 calls returned the same trace")
		}
		if _, err := runner.runSteps(ctx, scheduleOf(0, 4, 1)); err != nil {
			t.Error(err)
			return
		}
		for i, tr := range traces {
			if got := encode(tr); got != want[i] {
				t.Errorf("test %d changed after a discarding lane ran on its runner:\n got %s\nwant %s", tr.TestID, got, want[i])
			}
		}
	})
	sim.Wait()
}
