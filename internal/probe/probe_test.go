package probe

import (
	"context"
	"strings"
	"testing"
	"time"

	"conprobe/internal/core"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// runOne executes a single test of the given kind against a named profile
// and returns its trace.
func runOne(t *testing.T, svcName string, kind trace.TestKind, seed int64) *trace.TestTrace {
	t.Helper()
	t1, t2 := 0, 0
	if kind == trace.Test1 {
		t1 = 1
	} else {
		t2 = 1
	}
	res, err := SimulateConcurrent(context.Background(), Options{
		Workload: Workload{
			Service:    svcName,
			Test1Count: t1,
			Test2Count: t2,
			Seed:       seed,
		},
		Engine: Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces := res.TracesOf(kind)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	return traces[0]
}

func TestTest1ProducesSixStaggeredWrites(t *testing.T) {
	tr := runOne(t, service.NameBlogger, trace.Test1, 11)
	if len(tr.Writes) != 6 {
		t.Fatalf("got %d writes, want 6", len(tr.Writes))
	}
	byAgent := tr.WritesByAgent()
	for ag := trace.AgentID(1); ag <= 3; ag++ {
		ws := byAgent[ag]
		if len(ws) != 2 {
			t.Fatalf("agent %d wrote %d, want 2", ag, len(ws))
		}
		wantFirst := writeID(1, 2*int(ag)-1)
		wantSecond := writeID(1, 2*int(ag))
		if ws[0].ID != wantFirst || ws[1].ID != wantSecond {
			t.Fatalf("agent %d writes = %s,%s want %s,%s", ag, ws[0].ID, ws[1].ID, wantFirst, wantSecond)
		}
	}
	// Triggers: m3 depends on m2, m5 on m4; m1 has none.
	w3, _ := tr.WriteByID(writeID(1, 3))
	w5, _ := tr.WriteByID(writeID(1, 5))
	w1, _ := tr.WriteByID(writeID(1, 1))
	if w3.Trigger != writeID(1, 2) || w5.Trigger != writeID(1, 4) {
		t.Fatalf("triggers = %q,%q", w3.Trigger, w5.Trigger)
	}
	if w1.Trigger != "" {
		t.Fatalf("m1 has trigger %q", w1.Trigger)
	}
}

func TestTest1StaggeringOrder(t *testing.T) {
	tr := runOne(t, service.NameBlogger, trace.Test1, 12)
	// On reference timeline, each agent's first write follows the
	// completion of the previous agent's second write.
	get := func(k int) trace.Write {
		w, ok := tr.WriteByID(writeID(1, k))
		if !ok {
			t.Fatalf("missing write m%d", k)
		}
		return w
	}
	for ag := 2; ag <= 3; ag++ {
		prev := get(2 * (ag - 1))
		cur := get(2*ag - 1)
		prevEnd := tr.Corrected(prev.Agent, prev.Returned)
		curStart := tr.Corrected(cur.Agent, cur.Invoked)
		// Allow the clock-sync estimation error (bounded by the sum of
		// both agents' uncertainties).
		slack := tr.Uncertainty[prev.Agent] + tr.Uncertainty[cur.Agent]
		if curStart.Add(slack).Before(prevEnd) {
			t.Fatalf("agent %d wrote at %v before observing m%d finished at %v",
				ag, curStart, 2*(ag-1), prevEnd)
		}
	}
}

func TestTest1BloggerHasNoAnomalies(t *testing.T) {
	// Strong consistency: the full checker battery must stay silent.
	for seed := int64(0); seed < 5; seed++ {
		tr := runOne(t, service.NameBlogger, trace.Test1, 100+seed)
		if vs := core.CheckTest(tr); len(vs) != 0 {
			t.Fatalf("seed %d: blogger shows anomalies: %+v", seed, vs[0])
		}
	}
}

func TestTest2BloggerHasNoAnomalies(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tr := runOne(t, service.NameBlogger, trace.Test2, 200+seed)
		if vs := core.CheckTest(tr); len(vs) != 0 {
			t.Fatalf("seed %d: blogger shows anomalies: %+v", seed, vs[0])
		}
	}
}

func TestTest2OneWritePerAgentAndAdaptiveReads(t *testing.T) {
	tr := runOne(t, service.NameBlogger, trace.Test2, 13)
	if len(tr.Writes) != 3 {
		t.Fatalf("got %d writes, want 3", len(tr.Writes))
	}
	reads := tr.ReadsByAgent()
	for ag, rs := range reads {
		if len(rs) != 20 { // Blogger Table II: 20 reads per agent
			t.Fatalf("agent %d has %d reads, want 20", ag, len(rs))
		}
		// Adaptive cadence: first 13 gaps ~300ms, later gaps ~1s. Gaps
		// are between consecutive invocations minus the read RTT, so
		// just check the later gaps are distinctly longer.
		early := rs[2].Invoked.Sub(rs[1].Invoked)
		late := rs[16].Invoked.Sub(rs[15].Invoked)
		if late <= early {
			t.Fatalf("agent %d: late gap %v not slower than early gap %v", ag, late, early)
		}
		if late < 900*time.Millisecond {
			t.Fatalf("agent %d: late gap %v, want ~1s", ag, late)
		}
	}
}

func TestTest2WritesRoughlySimultaneous(t *testing.T) {
	tr := runOne(t, service.NameBlogger, trace.Test2, 14)
	// All three writes should be invoked within the combined clock-sync
	// error (sub-250ms) on the reference timeline.
	var lo, hi time.Time
	for i, w := range tr.Writes {
		at := tr.Corrected(w.Agent, w.Invoked)
		if i == 0 || at.Before(lo) {
			lo = at
		}
		if i == 0 || at.After(hi) {
			hi = at
		}
	}
	if spread := hi.Sub(lo); spread > 250*time.Millisecond {
		t.Fatalf("write spread = %v, want < 250ms", spread)
	}
}

func TestCampaignCountsAndGaps(t *testing.T) {
	res, err := SimulateConcurrent(context.Background(), Options{
		Workload: Workload{
			Service:    service.NameBlogger,
			Test1Count: 3,
			Test2Count: 2,
			Seed:       5,
		},
		Engine: Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TracesOf(trace.Test1)) != 3 || len(res.TracesOf(trace.Test2)) != 2 {
		t.Fatalf("trace counts wrong: %d/%d",
			len(res.TracesOf(trace.Test1)), len(res.TracesOf(trace.Test2)))
	}
	if res.Service != service.NameBlogger {
		t.Fatalf("service = %s", res.Service)
	}
	// Test IDs are unique and increasing.
	seen := map[int]bool{}
	for _, tr := range res.Traces {
		if seen[tr.TestID] {
			t.Fatalf("duplicate test id %d", tr.TestID)
		}
		seen[tr.TestID] = true
	}
	// Inter-test gap respected: consecutive test1 starts >= 20min apart.
	t1s := res.TracesOf(trace.Test1)
	for i := 1; i < len(t1s); i++ {
		if gap := t1s[i].Started.Sub(t1s[i-1].Started); gap < 20*time.Minute {
			t.Fatalf("test gap %v < 20min", gap)
		}
	}
}

func TestCampaignDeterministicForSeed(t *testing.T) {
	run := func() *Result {
		res, err := SimulateConcurrent(context.Background(), Options{
			Workload: Workload{
				Service:    service.NameFBGroup,
				Test1Count: 2,
				Test2Count: 1,
				Seed:       77,
			},
			Engine: Engine{Lanes: 1},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Traces) != len(b.Traces) {
		t.Fatal("nondeterministic trace count")
	}
	for i := range a.Traces {
		ta, tb := a.Traces[i], b.Traces[i]
		if len(ta.Reads) != len(tb.Reads) || len(ta.Writes) != len(tb.Writes) {
			t.Fatalf("trace %d: op counts differ", i)
		}
		for j := range ta.Reads {
			if !ta.Reads[j].Invoked.Equal(tb.Reads[j].Invoked) {
				t.Fatalf("trace %d read %d: times differ", i, j)
			}
			if len(ta.Reads[j].Observed) != len(tb.Reads[j].Observed) {
				t.Fatalf("trace %d read %d: observations differ", i, j)
			}
		}
	}
}

func TestTracesCarryClockDeltas(t *testing.T) {
	tr := runOne(t, service.NameGooglePlus, trace.Test2, 15)
	if len(tr.Deltas) != 3 || len(tr.Uncertainty) != 3 {
		t.Fatalf("deltas/uncertainty incomplete: %v %v", tr.Deltas, tr.Uncertainty)
	}
	for ag, u := range tr.Uncertainty {
		if u <= 0 || u > 200*time.Millisecond {
			t.Fatalf("agent %d uncertainty %v implausible", ag, u)
		}
	}
}

func TestFBGroupSameSecondReversalYieldsMW(t *testing.T) {
	// With a 200ms write gap most FBGroup tests exhibit the same-second
	// monotonic-writes reversal; check several seeds and require a
	// strong majority.
	hits := 0
	const n = 10
	for seed := int64(0); seed < n; seed++ {
		tr := runOne(t, service.NameFBGroup, trace.Test1, 300+seed)
		if len(core.CheckMonotonicWrites(tr)) > 0 {
			hits++
		}
	}
	if hits < n/2 {
		t.Fatalf("MW in %d/%d FBGroup tests, want majority", hits, n)
	}
}

func TestFBFeedShowsRYW(t *testing.T) {
	hits := 0
	const n = 5
	for seed := int64(0); seed < n; seed++ {
		tr := runOne(t, service.NameFBFeed, trace.Test1, 400+seed)
		if len(core.CheckReadYourWrites(tr)) > 0 {
			hits++
		}
	}
	if hits < n-1 {
		t.Fatalf("RYW in %d/%d FBFeed tests, want nearly all", hits, n)
	}
}

func TestGooglePlusShowsContentDivergence(t *testing.T) {
	hits := 0
	const n = 6
	for seed := int64(0); seed < n; seed++ {
		tr := runOne(t, service.NameGooglePlus, trace.Test2, 500+seed)
		if len(core.CheckContentDivergence(tr)) > 0 {
			hits++
		}
	}
	if hits < n/2 {
		t.Fatalf("CD in %d/%d G+ tests, want majority", hits, n)
	}
}

func TestFaultWindowPartitionsTokyo(t *testing.T) {
	// FBGroup with >=20 Test 2 instances gets the Tokyo fault window;
	// during it, the Tokyo agent must diverge from the others.
	res, err := SimulateConcurrent(context.Background(), Options{
		Workload: Workload{
			Service:    service.NameFBGroup,
			Test2Count: 24,
			Seed:       9,
		},
		Engine: Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t2s := res.TracesOf(trace.Test2)
	divergedInWindow := false
	for i := 12; i < 21 && i < len(t2s); i++ {
		if len(core.CheckContentDivergence(t2s[i])) > 0 {
			divergedInWindow = true
			break
		}
	}
	if !divergedInWindow {
		t.Fatal("no content divergence during the injected Tokyo fault window")
	}
}

func TestConfigValidation(t *testing.T) {
	sim := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1)
	svc, err := service.NewSimulated(sim, net, service.Blogger(), 1)
	if err != nil {
		t.Fatal(err)
	}
	agents := DefaultAgents(sim, time.Second, 1)

	tests := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"too few agents", func(c *Config) { c.Agents = c.Agents[:1] }, "two agents"},
		{"bad ids", func(c *Config) { c.Agents[1].ID = 7 }, "IDs"},
		{"nil clock", func(c *Config) { c.Agents[0].Clock = nil }, "clock"},
		{"no coordinator", func(c *Config) { c.Coordinator = "" }, "coordinator"},
		{"bad test1", func(c *Config) { c.Test1.ReadPeriod = 0 }, "read period"},
		{"bad test2 reads", func(c *Config) { c.Test2.ReadsPerAgent = 0 }, "reads per agent"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := CampaignFor(service.NameBlogger, agents, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Fresh copy of agents so mutations don't leak across cases.
			cfg.Agents = append([]Agent(nil), agents...)
			tt.mut(&cfg)
			_, err = NewRunner(sim, net, svc, cfg)
			if err == nil {
				t.Fatalf("accepted config with %s", tt.name)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	// Restore agent state mutated above is unnecessary: each case copied.
}

func TestCampaignForUnknownService(t *testing.T) {
	if _, err := CampaignFor("myspace", nil, 1, 1); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, _, err := PaperTestCounts("myspace"); err == nil {
		t.Fatal("unknown service accepted by PaperTestCounts")
	}
}

func TestPaperTestCountsMatchTables(t *testing.T) {
	t1, t2, err := PaperTestCounts(service.NameGooglePlus)
	if err != nil || t1 != 1036 || t2 != 922 {
		t.Fatalf("G+ counts = %d,%d,%v", t1, t2, err)
	}
	t1, t2, err = PaperTestCounts(service.NameFBGroup)
	if err != nil || t1 != 1027 || t2 != 1126 {
		t.Fatalf("FBGroup counts = %d,%d,%v", t1, t2, err)
	}
}

func TestDefaultAgentsSkewBounded(t *testing.T) {
	sim := vtime.NewSim(epoch)
	max := 1500 * time.Millisecond
	agents := DefaultAgents(sim, max, 3)
	if len(agents) != 3 {
		t.Fatalf("got %d agents", len(agents))
	}
	for _, a := range agents {
		if s := a.Clock.Skew(); s <= -max || s >= max {
			t.Fatalf("agent %d skew %v outside (-%v, %v)", a.ID, s, max, max)
		}
	}
	if agents[0].Site != simnet.Oregon || agents[1].Site != simnet.Tokyo || agents[2].Site != simnet.Ireland {
		t.Fatal("agent sites not in paper order")
	}
	if agents[0].Label() != "agent1" {
		t.Fatal("label wrong")
	}
}

func TestSimulateUnknownService(t *testing.T) {
	if _, err := SimulateConcurrent(context.Background(), Options{
		Workload: Workload{
			Service:    "nope",
			Test1Count: 1,
		},
		Engine: Engine{Lanes: 1},
	}, nil, nil); err == nil {
		t.Fatal("unknown service accepted")
	}
}
