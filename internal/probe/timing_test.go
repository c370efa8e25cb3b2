package probe

import (
	"context"
	"testing"
	"time"

	"conprobe/internal/core"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// strongNoDelayService builds a Blogger-like service with zero API delay
// so operation timing is fully determined by the network model.
func strongNoDelayRunner(t *testing.T, cfg Config) (*vtime.Sim, *Runner) {
	t.Helper()
	sim := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1, simnet.WithJitter(0))
	prof := service.Blogger()
	prof.APIDelay = 0
	svc, err := service.NewSimulated(sim, net, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Agents == nil {
		cfg.Agents = DefaultAgents(sim, 0, 2) // no skew: exact timing
	}
	if cfg.Coordinator == "" {
		cfg.Coordinator = simnet.Virginia
	}
	r, err := NewRunner(sim, net, svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, r
}

func TestTest2AdaptiveScheduleBoundary(t *testing.T) {
	sim, r := strongNoDelayRunner(t, Config{
		Test2: TestConfig{
			ReadPeriod:    100 * time.Millisecond,
			FastReads:     3,
			SlowPeriod:    500 * time.Millisecond,
			ReadsPerAgent: 6,
			Count:         1,
		},
	})
	var tr *trace.TestTrace
	sim.Go(func() {
		var err error
		tr, err = r.RunTest2(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
	})
	sim.Wait()
	rs := tr.ReadsByAgent()[1]
	if len(rs) != 6 {
		t.Fatalf("reads = %d", len(rs))
	}
	// Gaps between invocations: read RTT is constant (no jitter, no API
	// delay), so gap = period + rtt. The first FastReads reads use the
	// fast period: gaps after reads 0,1,2 are fast; reads 3+ slow.
	rtt := 12 * time.Millisecond // Oregon to DCEast is 70ms... Blogger routes to DCEast: 70ms.
	_ = rtt
	var gaps []time.Duration
	for i := 1; i < len(rs); i++ {
		gaps = append(gaps, rs[i].Invoked.Sub(rs[i-1].Invoked))
	}
	for i, g := range gaps {
		fast := i < 3 // gaps 0,1,2 follow reads 0,1,2 (n<FastReads)
		if fast && g >= 500*time.Millisecond {
			t.Fatalf("gap %d = %v, want fast", i, g)
		}
		if !fast && g < 500*time.Millisecond {
			t.Fatalf("gap %d = %v, want slow", i, g)
		}
	}
}

func TestTest1WriteGapSpacing(t *testing.T) {
	sim, r := strongNoDelayRunner(t, Config{
		Test1: TestConfig{
			ReadPeriod: 100 * time.Millisecond,
			WriteGap:   250 * time.Millisecond,
			Timeout:    30 * time.Second,
			Count:      1,
		},
	})
	var tr *trace.TestTrace
	sim.Go(func() {
		var err error
		tr, err = r.RunTest1(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
	})
	sim.Wait()
	for ag, ws := range tr.WritesByAgent() {
		if len(ws) != 2 {
			t.Fatalf("agent %d wrote %d", ag, len(ws))
		}
		gap := ws[1].Invoked.Sub(ws[0].Returned)
		if gap != 250*time.Millisecond {
			t.Fatalf("agent %d write gap = %v, want 250ms", ag, gap)
		}
	}
}

func TestCampaignHealsFaultsAfterwards(t *testing.T) {
	sim := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1)
	prof := service.FBGroup()
	svc, err := service.NewSimulated(sim, net, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	agents := DefaultAgents(sim, time.Second, 2)
	cfg, err := CampaignFor(service.NameFBGroup, agents, 0, 22) // fault window active
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Faults) == 0 {
		t.Fatal("expected fault window at this count")
	}
	r, err := NewRunner(sim, net, svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Go(func() {
		if _, err := r.RunCampaign(context.Background()); err != nil {
			t.Error(err)
		}
	})
	sim.Wait()
	f := cfg.Faults[0]
	if !net.Reachable(f.A, f.B) {
		t.Fatal("fault partition not healed after campaign")
	}
}

func TestRunnerIdentityWrapper(t *testing.T) {
	calls := 0
	sim, r := strongNoDelayRunner(t, Config{
		Test1: TestConfig{
			ReadPeriod: 100 * time.Millisecond,
			Timeout:    30 * time.Second,
			Count:      1,
		},
	})
	_ = calls
	var tr *trace.TestTrace
	sim.Go(func() {
		var err error
		tr, err = r.RunTest1(context.Background(), 1)
		if err != nil {
			t.Error(err)
		}
	})
	sim.Wait()
	if len(tr.Writes) != 6 {
		t.Fatalf("writes = %d", len(tr.Writes))
	}
}

func TestResultTracesOfEmpty(t *testing.T) {
	var res Result
	if got := res.TracesOf(trace.Test1); len(got) != 0 {
		t.Fatal("phantom traces")
	}
}

func TestBlockShare(t *testing.T) {
	sum := 0
	for b := 0; b < 4; b++ {
		sum += blockShare(10, 4, b)
	}
	if sum != 10 {
		t.Fatalf("shares sum to %d", sum)
	}
	if blockShare(10, 4, 0) != 3 || blockShare(10, 4, 3) != 2 {
		t.Fatal("remainder distribution wrong")
	}
}

func TestCampaignAlternation(t *testing.T) {
	res, err := SimulateConcurrent(context.Background(), Options{
		Workload: Workload{
			Service:         service.NameBlogger,
			Test1Count:      4,
			Test2Count:      4,
			Seed:            3,
			AlternateBlocks: 2,
		},
		Engine: Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 8 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
	// Expected kind sequence: 1,1,2,2,1,1,2,2.
	want := []trace.TestKind{
		trace.Test1, trace.Test1, trace.Test2, trace.Test2,
		trace.Test1, trace.Test1, trace.Test2, trace.Test2,
	}
	for i, tr := range res.Traces {
		if tr.Kind != want[i] {
			t.Fatalf("position %d kind %v, want %v", i, tr.Kind, want[i])
		}
		if tr.TestID != i+1 {
			t.Fatalf("position %d id %d", i, tr.TestID)
		}
	}
	// Traces are ordered by start time (interleaved execution really
	// happened).
	for i := 1; i < len(res.Traces); i++ {
		if res.Traces[i].Started.Before(res.Traces[i-1].Started) {
			t.Fatal("trace start times out of order")
		}
	}
}

func TestAlternationFaultWindowStillByKindIndex(t *testing.T) {
	// FBGroup's fault window covers Test 2 indexes [11,20) at count 22;
	// alternation must not change which instances see the partition.
	res, err := SimulateConcurrent(context.Background(), Options{
		Workload: Workload{
			Service:         service.NameFBGroup,
			Test2Count:      22,
			Seed:            9,
			AlternateBlocks: 3,
		},
		Engine: Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t2s := res.TracesOf(trace.Test2)
	if len(t2s) != 22 {
		t.Fatalf("test2 traces = %d", len(t2s))
	}
	diverged := 0
	for i := 11; i < 20; i++ {
		if len(core.CheckContentDivergence(t2s[i])) > 0 {
			diverged++
		}
	}
	if diverged < 8 {
		t.Fatalf("fault window weakly expressed under alternation: %d/9", diverged)
	}
}

func TestCampaignTraceSinkStreams(t *testing.T) {
	sim, r := strongNoDelayRunner(t, Config{
		Test1: TestConfig{
			ReadPeriod: 100 * time.Millisecond,
			Timeout:    30 * time.Second,
			Gap:        time.Minute,
			Count:      2,
		},
	})
	var ids []int
	r.cfg.Sink = func(tr *trace.TestTrace, next time.Time) error {
		ids = append(ids, tr.TestID)
		// next is where the following step begins: one gap from now.
		if want := sim.Now().Add(time.Minute); !next.Equal(want) {
			t.Errorf("test %d: sink next = %v, want %v", tr.TestID, next, want)
		}
		return nil
	}
	sim.Go(func() {
		if _, err := r.RunCampaign(context.Background()); err != nil {
			t.Error(err)
		}
	})
	sim.Wait()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("sink ids = %v", ids)
	}
}

func TestCampaignTraceSinkErrorAborts(t *testing.T) {
	sim, r := strongNoDelayRunner(t, Config{
		Test1: TestConfig{
			ReadPeriod: 100 * time.Millisecond,
			Timeout:    30 * time.Second,
			Count:      3,
		},
	})
	calls := 0
	r.cfg.Sink = func(*trace.TestTrace, time.Time) error {
		calls++
		if calls == 2 {
			return errFlaky
		}
		return nil
	}
	var runErr error
	sim.Go(func() { _, runErr = r.RunCampaign(context.Background()) })
	sim.Wait()
	if runErr == nil || calls != 2 {
		t.Fatalf("runErr=%v calls=%d", runErr, calls)
	}
}
