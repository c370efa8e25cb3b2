// Benchmark harness: one target per table and figure of the paper's
// evaluation (Section V), plus ablations over the simulator's design
// choices and micro-benchmarks of the hot paths.
//
// Campaign-backed benchmarks run a fixed-size campaign (memoized across
// targets, so `go test -bench=.` simulates each service once) and report
// the paper's quantities via b.ReportMetric:
//
//	BenchmarkTable1Test1/<svc>      reads per agent per test, test duration
//	BenchmarkTable2Test2/<svc>      reads per agent per test
//	BenchmarkFig3AnomalyPrevalence  %% of tests per anomaly per service
//	BenchmarkFig4..7<anomaly>       per-agent distribution + correlation
//	BenchmarkFig8ContentDivergence  %% of tests per agent pair
//	BenchmarkFig9ContentWindowCDF   window quantiles per service
//	BenchmarkFig10OrderWindowCDF    window quantiles + converged fraction
//
// Run `go test -bench=. -benchmem` and compare against EXPERIMENTS.md.
package conprobe_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conprobe"
	"conprobe/internal/analysis"
	"conprobe/internal/checkpoint"
	"conprobe/internal/clocksync"
	"conprobe/internal/core"
	"conprobe/internal/diskfault"
	"conprobe/internal/httpapi"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/stats"
	"conprobe/internal/store"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// benchTests is the per-kind campaign size used by the figure benches.
// The paper ran ~1000 instances per kind per service; 80 keeps the full
// bench suite fast while preserving the shapes. Scale up with
// cmd/conprobe -paper for publication-grade runs.
const benchTests = 80

const benchSeed = 3

var (
	campaignMu    sync.Mutex
	campaignCache = make(map[string]*analysis.Report)
	traceCache    = make(map[string][]*trace.TestTrace)
)

// benchCampaign memoizes one full campaign per service.
func benchCampaign(b *testing.B, svc string) (*analysis.Report, []*trace.TestTrace) {
	b.Helper()
	campaignMu.Lock()
	defer campaignMu.Unlock()
	if rep, ok := campaignCache[svc]; ok {
		return rep, traceCache[svc]
	}
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    svc,
			Test1Count: benchTests,
			Test2Count: benchTests,
			Seed:       benchSeed,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	rep := analysis.Analyze(res.Service, res.Traces)
	campaignCache[svc] = rep
	traceCache[svc] = res.Traces
	return rep, res.Traces
}

func services() []string { return service.ProfileNames() }

// --- Table I / Table II -------------------------------------------------

// BenchmarkTable1Test1 regenerates Table I: reads per agent per test and
// wall-clock (virtual) duration per test for the Test 1 protocol.
func BenchmarkTable1Test1(b *testing.B) {
	for _, svc := range services() {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			_, traces := benchCampaign(b, svc)
			var reads, tests int
			for _, tr := range traces {
				if tr.Kind != trace.Test1 {
					continue
				}
				tests++
				reads += len(tr.Reads)
			}
			for i := 0; i < b.N; i++ {
				_ = reads
			}
			if tests > 0 {
				b.ReportMetric(float64(reads)/float64(tests*3), "reads/agent/test")
				b.ReportMetric(float64(tests), "tests")
			}
		})
	}
}

// BenchmarkTable2Test2 regenerates Table II: reads per agent per test
// under the adaptive read schedule.
func BenchmarkTable2Test2(b *testing.B) {
	for _, svc := range services() {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			_, traces := benchCampaign(b, svc)
			var reads, tests int
			for _, tr := range traces {
				if tr.Kind != trace.Test2 {
					continue
				}
				tests++
				reads += len(tr.Reads)
			}
			for i := 0; i < b.N; i++ {
				_ = reads
			}
			if tests > 0 {
				b.ReportMetric(float64(reads)/float64(tests*3), "reads/agent/test")
				b.ReportMetric(float64(tests), "tests")
			}
		})
	}
}

// --- Figure 3 ------------------------------------------------------------

// BenchmarkFig3AnomalyPrevalence regenerates Figure 3: the percentage of
// tests exhibiting each anomaly, per service.
func BenchmarkFig3AnomalyPrevalence(b *testing.B) {
	for _, svc := range services() {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			rep, _ := benchCampaign(b, svc)
			for i := 0; i < b.N; i++ {
				_ = rep
			}
			b.ReportMetric(rep.Session[core.ReadYourWrites].Prevalence(), "RYW_%")
			b.ReportMetric(rep.Session[core.MonotonicWrites].Prevalence(), "MW_%")
			b.ReportMetric(rep.Session[core.MonotonicReads].Prevalence(), "MR_%")
			b.ReportMetric(rep.Session[core.WritesFollowsReads].Prevalence(), "WFR_%")
			b.ReportMetric(rep.Divergence[core.ContentDivergence].Prevalence(), "CD_%")
			b.ReportMetric(rep.Divergence[core.OrderDivergence].Prevalence(), "OD_%")
		})
	}
}

// --- Figures 4-7 ----------------------------------------------------------

// sessionFigure reports one session anomaly's per-test distribution
// (share of violating agent-tests with a single observation vs several)
// and the fraction of violating tests seen by exactly one agent — the
// quantities plotted in Figures 4-7.
func sessionFigure(b *testing.B, anomaly core.Anomaly, svcs []string) {
	b.Helper()
	for _, svc := range svcs {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			rep, _ := benchCampaign(b, svc)
			s := rep.Session[anomaly]
			for i := 0; i < b.N; i++ {
				_ = s
			}
			b.ReportMetric(s.Prevalence(), "prevalence_%")
			single, multi := 0, 0
			for _, counts := range s.PerTestCounts {
				for _, c := range counts {
					if c == 1 {
						single++
					} else {
						multi++
					}
				}
			}
			if single+multi > 0 {
				b.ReportMetric(100*float64(single)/float64(single+multi), "single_obs_%")
			}
			if s.TestsWithAnomaly > 0 {
				b.ReportMetric(100*s.ExclusiveFraction(), "one_agent_only_%")
			}
		})
	}
}

// BenchmarkFig4ReadYourWrites regenerates Figure 4 (Google+, FB Feed).
func BenchmarkFig4ReadYourWrites(b *testing.B) {
	sessionFigure(b, core.ReadYourWrites, []string{service.NameGooglePlus, service.NameFBFeed})
}

// BenchmarkFig5MonotonicWrites regenerates Figure 5 (Google+ and both
// Facebook services).
func BenchmarkFig5MonotonicWrites(b *testing.B) {
	sessionFigure(b, core.MonotonicWrites,
		[]string{service.NameGooglePlus, service.NameFBFeed, service.NameFBGroup})
}

// BenchmarkFig6MonotonicReads regenerates Figure 6 (Google+, FB Feed).
func BenchmarkFig6MonotonicReads(b *testing.B) {
	sessionFigure(b, core.MonotonicReads, []string{service.NameGooglePlus, service.NameFBFeed})
}

// BenchmarkFig7WritesFollowsReads regenerates Figure 7 (Google+, FB
// Feed).
func BenchmarkFig7WritesFollowsReads(b *testing.B) {
	sessionFigure(b, core.WritesFollowsReads, []string{service.NameGooglePlus, service.NameFBFeed})
}

// --- Figure 8 --------------------------------------------------------------

// BenchmarkFig8ContentDivergence regenerates Figure 8: percentage of
// tests with content divergence per agent pair.
func BenchmarkFig8ContentDivergence(b *testing.B) {
	for _, svc := range []string{service.NameGooglePlus, service.NameFBFeed, service.NameFBGroup} {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			rep, _ := benchCampaign(b, svc)
			d := rep.Divergence[core.ContentDivergence]
			for i := 0; i < b.N; i++ {
				_ = d
			}
			for _, p := range d.SortedPairs() {
				ps := d.PerPair[p]
				b.ReportMetric(ps.Prevalence(), fmt.Sprintf("pair%d-%d_%%", p.A, p.B))
			}
		})
	}
}

// --- Figures 9 and 10 -------------------------------------------------------

func windowFigure(b *testing.B, anomaly core.Anomaly, svcs []string) {
	b.Helper()
	for _, svc := range svcs {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			rep, _ := benchCampaign(b, svc)
			d := rep.Divergence[anomaly]
			for i := 0; i < b.N; i++ {
				_ = d
			}
			var all []time.Duration
			converged, total := 0, 0
			for _, ps := range d.PerPair {
				all = append(all, ps.Windows...)
				converged += len(ps.Windows)
				total += len(ps.Windows) + ps.NotConverged
			}
			cdf := conprobe.NewCDF(all)
			b.ReportMetric(cdf.Quantile(0.5).Seconds()*1000, "p50_ms")
			b.ReportMetric(cdf.Quantile(0.9).Seconds()*1000, "p90_ms")
			b.ReportMetric(cdf.Max().Seconds()*1000, "max_ms")
			if total > 0 {
				b.ReportMetric(100*float64(converged)/float64(total), "converged_%")
			}
		})
	}
}

// BenchmarkFig9ContentWindowCDF regenerates Figure 9: the CDF of content
// divergence windows (largest per pair per test).
func BenchmarkFig9ContentWindowCDF(b *testing.B) {
	windowFigure(b, core.ContentDivergence,
		[]string{service.NameGooglePlus, service.NameFBFeed, service.NameFBGroup})
}

// BenchmarkFig10OrderWindowCDF regenerates Figure 10: the CDF of order
// divergence windows, with the fraction of runs that converged.
func BenchmarkFig10OrderWindowCDF(b *testing.B) {
	windowFigure(b, core.OrderDivergence,
		[]string{service.NameGooglePlus, service.NameFBFeed})
}

// --- Methodology: clock synchronization (Section IV) -----------------------

// BenchmarkClockSync measures the Cristian-style estimator: error of the
// recovered delta versus the true skew, and its reported uncertainty.
func BenchmarkClockSync(b *testing.B) {
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(1, simnet.WithJitter(0.2))
	const skew = 1500 * time.Millisecond
	var (
		errSum, uncSum time.Duration
		n              int
	)
	done := make(chan struct{})
	sim.Go(func() {
		defer close(done)
		ac := clocksync.NewSkewedClock(sim, skew)
		probeFn := clocksync.NewSimProbe(sim, net, simnet.Virginia, simnet.Tokyo, ac)
		probeFn.Round(1)
		for i := 0; i < b.N; i++ {
			res, err := clocksync.Estimate(sim, probeFn.Probe, 5)
			if err != nil {
				b.Error(err)
				return
			}
			e := res.Delta + skew
			if e < 0 {
				e = -e
			}
			errSum += e
			uncSum += res.Uncertainty
			n++
		}
	})
	sim.Wait()
	<-done
	if n > 0 {
		b.ReportMetric(float64(errSum.Microseconds())/float64(n), "err_us")
		b.ReportMetric(float64(uncSum.Microseconds())/float64(n), "uncert_us")
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---------------------

// ablationCampaign runs a small campaign over a custom profile.
func ablationCampaign(b *testing.B, name string, prof service.Profile, t1, t2 int) *analysis.Report {
	b.Helper()
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    name,
			Test1Count: t1,
			Test2Count: t2,
			Seed:       benchSeed,
			Profile:    &prof,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return analysis.Analyze(res.Service, res.Traces)
}

// BenchmarkAblationStoreMode compares strong vs eventual replication for
// the same topology: strong eliminates content divergence entirely.
func BenchmarkAblationStoreMode(b *testing.B) {
	for _, mode := range []store.Mode{store.Strong, store.Eventual} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			prof := service.GooglePlus()
			prof.ReadFlapProb = 0
			if mode == store.Strong {
				prof.Store.Mode = store.Strong
			}
			var rep *analysis.Report
			for i := 0; i < b.N; i++ {
				rep = ablationCampaign(b, service.NameGooglePlus, prof, 0, 20)
			}
			b.ReportMetric(rep.Divergence[core.ContentDivergence].Prevalence(), "CD_%")
		})
	}
}

// BenchmarkAblationSelection toggles Facebook Feed's interest-based read
// selection: without it, order divergence collapses toward the store's
// native behavior.
func BenchmarkAblationSelection(b *testing.B) {
	for _, sel := range []bool{true, false} {
		sel := sel
		name := "with-selection"
		if !sel {
			name = "without-selection"
		}
		b.Run(name, func(b *testing.B) {
			prof := service.FBFeed()
			if !sel {
				prof.Selection = nil
			}
			var rep *analysis.Report
			for i := 0; i < b.N; i++ {
				rep = ablationCampaign(b, service.NameFBFeed, prof, 20, 20)
			}
			b.ReportMetric(rep.Session[core.MonotonicReads].Prevalence(), "MR_%")
			b.ReportMetric(rep.Divergence[core.OrderDivergence].Prevalence(), "OD_%")
		})
	}
}

// BenchmarkAblationTieBreak toggles Facebook Group's reversed same-second
// tie-break — the single mechanism behind its monotonic-writes anomaly.
func BenchmarkAblationTieBreak(b *testing.B) {
	for _, reversed := range []bool{true, false} {
		reversed := reversed
		name := "reversed-ties"
		if !reversed {
			name = "arrival-ties"
		}
		b.Run(name, func(b *testing.B) {
			prof := service.FBGroup()
			prof.Store.Policy.ReverseTies = reversed
			var rep *analysis.Report
			for i := 0; i < b.N; i++ {
				rep = ablationCampaign(b, service.NameFBGroup, prof, 25, 0)
			}
			b.ReportMetric(rep.Session[core.MonotonicWrites].Prevalence(), "MW_%")
		})
	}
}

// BenchmarkAblationSessionMasking quantifies the client-side masking of
// Section V's discussion: raw vs wrapped agents on Facebook Feed.
func BenchmarkAblationSessionMasking(b *testing.B) {
	for _, masked := range []bool{false, true} {
		masked := masked
		name := "raw"
		if masked {
			name = "masked"
		}
		b.Run(name, func(b *testing.B) {
			var wrap probe.ClientWrapper
			if masked {
				wrap = func(ag probe.Agent, svc service.Service) service.Service {
					return conprobe.WrapSession(svc, ag.Label(), conprobe.MaskAll)
				}
			}
			var violations int
			for i := 0; i < b.N; i++ {
				res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
					Workload: probe.Workload{
						Service:    service.NameFBFeed,
						Test1Count: 10,
						Seed:       benchSeed,
						Wrap:       wrap,
					},
					Engine: probe.Engine{Lanes: 1},
				}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				violations = 0
				for _, tr := range res.Traces {
					violations += len(core.CheckReadYourWrites(tr)) +
						len(core.CheckMonotonicReads(tr))
				}
			}
			b.ReportMetric(float64(violations), "RYW+MR_violations")
		})
	}
}

// --- Micro-benchmarks: hot paths -------------------------------------------

// benchTest2Trace returns a paper-shaped Test 2 (Table II): the first
// googleplus instance, three agents reading 45 times each.
func benchTest2Trace(b *testing.B) *trace.TestTrace {
	b.Helper()
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameGooglePlus,
			Test2Count: 1,
			Seed:       benchSeed,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	tr := res.Traces[0]
	if tr.Kind != trace.Test2 || len(tr.Reads) != 3*45 {
		b.Fatalf("fixture is %v with %d reads, want test2 with 135", tr.Kind, len(tr.Reads))
	}
	return tr
}

// BenchmarkCheckTest measures the full checker battery over a
// paper-shaped Test 2 trace. scripts/verify.sh prints its row.
func BenchmarkCheckTest(b *testing.B) {
	tr := benchTest2Trace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := core.CheckTest(tr); len(vs) == 0 {
			b.Fatal("fixture shows no anomaly")
		}
	}
}

// BenchmarkCheckTestReusedIndex runs the same battery through one index
// Reset per trace, as every analysis.Aggregator does: 0 allocs/op, where
// BenchmarkCheckTest's bytes are a fresh index's warm-up.
func BenchmarkCheckTestReusedIndex(b *testing.B) {
	tr := benchTest2Trace(b)
	var ix core.Index
	check := func() (n int) {
		ix.Reset(tr)
		for a := core.ReadYourWrites; a <= core.OrderDivergence; a++ {
			n += len(ix.Check(a))
		}
		return n
	}
	if check() == 0 {
		b.Fatal("fixture shows no anomaly")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check()
	}
}

// BenchmarkDivergenceWindows measures the timeline-scan window
// computation on the same trace.
func BenchmarkDivergenceWindows(b *testing.B) {
	tr := benchTest2Trace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.ContentDivergenceWindows(tr)
		_ = core.OrderDivergenceWindows(tr)
	}
}

// BenchmarkSimScheduler measures the virtual-time scheduler's event
// throughput (sleep-wake cycles per second across contending actors).
func BenchmarkSimScheduler(b *testing.B) {
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	const actors = 8
	per := b.N/actors + 1
	b.ReportAllocs()
	for a := 0; a < actors; a++ {
		a := a
		sim.Go(func() {
			for i := 0; i < per; i++ {
				sim.Sleep(time.Duration(1+(a+i)%5) * time.Millisecond)
			}
		})
	}
	sim.Wait()
}

// BenchmarkSimTimerRearm measures one scheduled callback: a timer re-armed,
// fired and its callback run on an actor, b.N times over. 0 allocs/op.
func BenchmarkSimTimerRearm(b *testing.B) {
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	fired := 0
	b.ReportAllocs()
	sim.Go(func() {
		tm := sim.AfterFunc(time.Hour, func() { fired++ })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.Reset(time.Millisecond)
			sim.Sleep(2 * time.Millisecond)
		}
	})
	sim.Wait()
	if fired != b.N {
		b.Fatalf("timer fired %d times in %d cycles", fired, b.N)
	}
}

// BenchmarkStoreDeliver measures a write on three eventual sites slept
// through to its last delivery: two enqueues, two timer fires, three
// applies. What it allocates is the replica logs growing.
func BenchmarkStoreDeliver(b *testing.B) {
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia, simnet.DCEurope}
	c, err := store.NewCluster(sim, simnet.DefaultTopology(1), store.Config{Mode: store.Eventual, Sites: sites}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sim.Go(func() {
		for _, id := range ids {
			if _, err := c.Write(simnet.DCWest, id, "a", ""); err != nil {
				b.Error(err)
				return
			}
			sim.Sleep(time.Second)
		}
	})
	sim.Wait()
	for _, s := range sites {
		if c.Len(s) != b.N {
			b.Fatalf("%s holds %d of %d writes", s, c.Len(s), b.N)
		}
	}
}

// BenchmarkStoreWrite measures replicated-store write throughput with
// propagation scheduling.
func BenchmarkStoreWrite(b *testing.B) {
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(1)
	c, err := store.NewCluster(sim, net, store.Config{
		Mode:  store.Eventual,
		Sites: []simnet.Site{simnet.DCWest, simnet.DCAsia, simnet.DCEurope},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, b.N)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	b.ResetTimer()
	done := make(chan struct{})
	sim.Go(func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := c.Write(simnet.DCWest, ids[i], "a", ""); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sim.Wait()
	<-done
}

// BenchmarkTraceJSONL measures encoding one trace as a JSONL line through
// a writer in its steady state: its line buffer already grown, as after
// the first test of a campaign.
func BenchmarkTraceJSONL(b *testing.B) {
	_, traces := benchCampaign(b, service.NameGooglePlus)
	tr := traces[0]
	var sink writerCounter
	w := trace.NewWriter(&sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(tr); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(sink.n / b.N))
}

// BenchmarkTraceJSONLDecode measures reading that line back: decoding
// stays encoding/json, so this is the reflective half of the codec.
func BenchmarkTraceJSONLDecode(b *testing.B) {
	_, traces := benchCampaign(b, service.NameGooglePlus)
	var line bytes.Buffer
	w := trace.NewWriter(&line)
	if err := w.Write(traces[0]); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	src := bytes.NewReader(nil)
	r := trace.NewReader(src)
	b.ReportAllocs()
	b.SetBytes(int64(line.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(line.Bytes())
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointAppend journals one kept trace, analyzed once
// beforehand as a lane does, per iteration to a real file: its ns/op is
// encoding and writing the frame, with the fsync the syncer issues behind
// it amortised over up to 64 frames (an AppendDelta waits for the disk
// only at that bound); its allocs/op is 0.
func BenchmarkCheckpointAppend(b *testing.B) {
	_, traces := benchCampaign(b, service.NameGooglePlus)
	tr := traces[0]
	delta := analysis.NewAggregator(service.NameGooglePlus)
	analysis.NewAggregator(service.NameGooglePlus).AddDelta(tr, delta)
	w, err := checkpoint.Create(filepath.Join(b.TempDir(), "bench.ckpt"),
		checkpoint.Meta{Service: service.NameGooglePlus, Seed: benchSeed, Lanes: 1, Test1Count: benchTests, Test2Count: benchTests},
		checkpoint.Config{KeepTraces: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendDelta(0, tr, tr.Started, nil, delta); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Degraded(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCampaignJournal runs the benchmark's campaign_journal shape
// once per iteration: fbgroup, 200 Test 1 and 200 Test 2 instances at
// parallelism 2, every trace kept and journaled to a checkpoint. It
// reports ms and journal fsyncs per campaign; a lane waits for none of
// them, so fewer fsyncs than tests is the syncer covering several
// frames with one.
func BenchmarkCampaignJournal(b *testing.B) {
	var syncs atomic.Int64
	path := filepath.Join(b.TempDir(), "campaign.ckpt")
	opts := conprobe.Options{
		Workload:   conprobe.Workload{Service: conprobe.ServiceFBGroup, Test1Count: 200, Test2Count: 200, Seed: 1},
		Engine:     conprobe.Engine{Parallelism: 2},
		Durability: conprobe.Durability{Checkpoint: path, FS: syncCountFS{FS: diskfault.OS, syncs: &syncs}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := conprobe.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Warnings) > 0 {
			b.Fatal(res.Warnings)
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N), "ms/op")
	b.ReportMetric(float64(syncs.Load())/float64(b.N), "fsyncs/op")
}

// syncCountFS counts the fsyncs of files opened through it.
type syncCountFS struct {
	diskfault.FS
	syncs *atomic.Int64
}

type syncCountFile struct {
	diskfault.File
	syncs *atomic.Int64
}

func (fs syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountFile{File: f, syncs: fs.syncs}, nil
}

func (f syncCountFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

type writerCounter struct{ n int }

func (w *writerCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkCampaign measures the end-to-end simulation rate: one full
// test (clock sync + protocol + analysis-ready trace) per iteration.
func BenchmarkCampaign(b *testing.B) {
	for _, svc := range []string{service.NameBlogger, service.NameFBGroup} {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
				Workload: probe.Workload{
					Service:    svc,
					Test1Count: b.N,
					Seed:       benchSeed,
				},
				Engine: probe.Engine{Lanes: 1},
			}, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Traces) != b.N {
				b.Fatalf("got %d traces", len(res.Traces))
			}
		})
	}
}

// BenchmarkCampaignParallel measures the concurrent engine's
// throughput across worker counts on a 1k-instance campaign. Each
// iteration runs the full campaign through SimulateConcurrent with 8
// lanes and the named parallelism, streaming traces (DiscardTraces)
// so memory stays flat. The tests/sec metric is the comparison point
// across rows; on a single-core host the rows collapse to the same
// rate, so no speedup is asserted here — the scaling claim is checked
// offline from the emitted BENCH data.
func BenchmarkCampaignParallel(b *testing.B) {
	const campaignTests = 1000
	for _, par := range []int{1, 2, 4, 8} {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			opts := probe.Options{
				Workload: probe.Workload{
					Service:    service.NameFBGroup,
					Test1Count: campaignTests / 2,
					Test2Count: campaignTests / 2,
					Seed:       benchSeed,
				},
				Engine: probe.Engine{
					DiscardTraces: true,
					Lanes:         probe.DefaultLanes,
					Parallelism:   par,
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := probe.SimulateConcurrent(context.Background(), opts, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(b.N*campaignTests)/s, "tests/sec")
			}
		})
	}
}

// BenchmarkCPULayers runs the benchmark's campaign_sim workload once per
// iteration: every service profile, 160 Test 1 and 160 Test 2 instances,
// at parallelism 2 with traces discarded. scripts/cpu_layers.sh profiles
// thirty iterations of it and charges the CPU to layers.
func BenchmarkCPULayers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range conprobe.ProfileNames() {
			_, err := conprobe.Run(context.Background(), conprobe.Options{
				Workload: conprobe.Workload{Service: name, Test1Count: 160, Test2Count: 160, Seed: 1},
				Engine:   conprobe.Engine{Parallelism: 2, DiscardTraces: true},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionMiddleware measures the masking layer's per-read
// overhead on realistic read sizes.
func BenchmarkSessionMiddleware(b *testing.B) {
	posts := make([]service.Post, 20)
	for i := range posts {
		posts[i] = service.Post{ID: fmt.Sprintf("m%d", i), Author: "agent2"}
	}
	svc := &replayService{posts: posts}
	client := conprobe.WrapSession(svc, "agent1", conprobe.MaskAll)
	if err := client.Write(simnet.Oregon, service.Post{ID: "own-1", Author: "agent1"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(simnet.Oregon, "agent1"); err != nil {
			b.Fatal(err)
		}
	}
}

// replayService returns a fixed post list.
type replayService struct{ posts []service.Post }

func (r *replayService) Name() string { return "replay" }
func (r *replayService) Write(simnet.Site, service.Post) error {
	return nil
}
func (r *replayService) Read(simnet.Site, string) ([]service.Post, error) {
	return append([]service.Post(nil), r.posts...), nil
}
func (r *replayService) Reset() error { return nil }

// BenchmarkStreamChecker measures the online detector's per-read cost.
func BenchmarkStreamChecker(b *testing.B) {
	s := core.NewStream()
	obs := make([]trace.WriteID, 12)
	for i := range obs {
		obs[i] = trace.WriteID(fmt.Sprintf("m%d", i))
	}
	s.ObserveWrite(trace.Write{ID: "m0", Agent: 1, Seq: 1})
	s.ObserveWrite(trace.Write{ID: "m1", Agent: 1, Seq: 2})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ObserveRead(trace.Read{Agent: trace.AgentID(1 + i%3), Observed: obs})
	}
}

// BenchmarkSelectionApply measures the interest-ranking hot path through
// a Simulated read of a 30-post Facebook Feed timeline.
func BenchmarkSelectionApply(b *testing.B) {
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(1)
	prof := service.FBFeed()
	prof.APIDelay = 0
	svc, err := service.NewSimulated(sim, net, prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	b.ReportAllocs()
	sim.Go(func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			if err := svc.Write(simnet.Oregon, service.Post{ID: fmt.Sprintf("m%d", i), Author: "a"}); err != nil {
				b.Error(err)
				return
			}
		}
		b.ResetTimer() // the writes and their replication are set-up
		for i := 0; i < b.N; i++ {
			if _, err := svc.Read(simnet.Oregon, "agent1"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sim.Wait()
	<-done
}

// BenchmarkHTTPRoundTrip measures the full HTTP facade round trip
// against an in-memory service.
func BenchmarkHTTPRoundTrip(b *testing.B) {
	prof := service.Blogger()
	prof.APIDelay = 0
	net := simnet.DefaultTopology(1, simnet.WithJitter(0))
	// Measure the HTTP facade, not the WAN model: collapse the client's
	// path to its data center.
	net.SetRTT(simnet.Oregon, simnet.DCEast, 100*time.Microsecond)
	svc, err := service.NewSimulated(vtime.Real{}, net, prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	server := httptest.NewServer(httpapi.NewServer(svc, httpapi.ServerConfig{}))
	defer server.Close()
	client, err := httpapi.NewClient(server.URL, "bench", server.Client())
	if err != nil {
		b.Fatal(err)
	}
	if err := client.Write(simnet.Oregon, service.Post{ID: "m1", Author: "a"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(simnet.Oregon, "agent1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdaptiveReads compares the paper's adaptive read
// schedule against a fixed 1s schedule: the fast initial reads buy
// higher window resolution for the same read budget.
func BenchmarkAblationAdaptiveReads(b *testing.B) {
	for _, adaptive := range []bool{true, false} {
		adaptive := adaptive
		name := "adaptive"
		if !adaptive {
			name = "fixed-1s"
		}
		b.Run(name, func(b *testing.B) {
			var p50 float64
			for i := 0; i < b.N; i++ {
				sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
				net := simnet.DefaultTopology(benchSeed)
				svc, err := service.NewSimulated(sim, net, service.GooglePlus(), benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				agents := probe.DefaultAgents(sim, time.Second, benchSeed)
				t2 := probe.TestConfig{
					ReadPeriod:    300 * time.Millisecond,
					FastReads:     14,
					SlowPeriod:    time.Second,
					ReadsPerAgent: 45,
					Gap:           time.Minute,
					Count:         25,
				}
				if !adaptive {
					t2.ReadPeriod = time.Second
					t2.FastReads = 0
					t2.ReadsPerAgent = 20 // comparable total test length
				}
				cfg := probe.Config{Agents: agents, Coordinator: simnet.Virginia, Test2: t2}
				runner, err := probe.NewRunner(sim, net, svc, cfg)
				if err != nil {
					b.Fatal(err)
				}
				var res *probe.Result
				sim.Go(func() {
					var err error
					res, err = runner.RunCampaign(context.Background())
					if err != nil {
						b.Error(err)
					}
				})
				sim.Wait()
				rep := analysis.Analyze("gplus", res.Traces)
				var all []time.Duration
				for _, ps := range rep.Divergence[core.ContentDivergence].PerPair {
					all = append(all, ps.Windows...)
				}
				p50 = conprobe.NewCDF(all).Quantile(0.5).Seconds() * 1000
			}
			b.ReportMetric(p50, "window_p50_ms")
		})
	}
}

// BenchmarkAblationEpochJitter toggles the per-epoch replication lag:
// without it, divergence windows collapse to a narrow band and the
// smooth CDFs of Figure 9 disappear (KS distance against the full model
// reported).
func BenchmarkAblationEpochJitter(b *testing.B) {
	windows := func(epochJitter bool) []float64 {
		prof := service.GooglePlus()
		if !epochJitter {
			prof.Store.EpochJitter = 0
			prof.Store.FastEpochProb = 0
		}
		rep := ablationCampaign(b, service.NameGooglePlus, prof, 0, 25)
		var out []float64
		for _, ps := range rep.Divergence[core.ContentDivergence].PerPair {
			for _, w := range ps.Windows {
				out = append(out, w.Seconds())
			}
		}
		return out
	}
	for _, jitter := range []bool{true, false} {
		jitter := jitter
		name := "with-epoch-jitter"
		if !jitter {
			name = "without-epoch-jitter"
		}
		b.Run(name, func(b *testing.B) {
			var ks float64
			var spread float64
			for i := 0; i < b.N; i++ {
				full := windows(true)
				variant := windows(jitter)
				ks = stats.KSDistance(full, variant)
				spread = stats.Percentile(variant, 90) - stats.Percentile(variant, 10)
			}
			b.ReportMetric(ks, "KS_vs_full")
			b.ReportMetric(spread*1000, "p90-p10_ms")
		})
	}
}
