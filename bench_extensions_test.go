package conprobe_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"conprobe"
	"conprobe/internal/analysis"
	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
	"conprobe/internal/whitebox"
)

// BenchmarkExtensionVisibilityLatency reports write-visibility
// (staleness) quantiles per service — the quantitative counterpart of
// read-your-writes, in the spirit of the PBS work the paper cites.
func BenchmarkExtensionVisibilityLatency(b *testing.B) {
	for _, svc := range services() {
		svc := svc
		b.Run(svc, func(b *testing.B) {
			_, traces := benchCampaign(b, svc)
			var v *analysis.VisibilityStats
			for i := 0; i < b.N; i++ {
				v = analysis.VisibilityLatencies(traces)
			}
			cdf := conprobe.NewCDF(v.All())
			b.ReportMetric(cdf.Quantile(0.5).Seconds()*1000, "p50_ms")
			b.ReportMetric(cdf.Quantile(0.99).Seconds()*1000, "p99_ms")
			b.ReportMetric(100*v.UnseenFraction(), "unseen_%")
			ownCDF := conprobe.NewCDF(v.OwnWrites)
			b.ReportMetric(ownCDF.Quantile(0.5).Seconds()*1000, "own_p50_ms")
		})
	}
}

// BenchmarkExtensionWhiteboxError measures the black-box methodology's
// window-estimation error against white-box ground truth, per read
// period: the error should be bounded by roughly one read period per
// window edge.
func BenchmarkExtensionWhiteboxError(b *testing.B) {
	for _, period := range []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, time.Second} {
		period := period
		b.Run(period.String(), func(b *testing.B) {
			var errSum float64
			var n int
			for i := 0; i < b.N; i++ {
				gt, bb := whiteboxComparison(b, period, int64(i))
				if gt > 0 && bb >= 0 {
					errSum += math.Abs(gt - bb)
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(errSum/float64(n)*1000, "abs_err_ms")
			}
		})
	}
}

// whiteboxComparison runs one Test 2 instance with a white-box monitor
// attached and returns (ground truth, black-box) largest content window
// in seconds for the cross-DC agent pair.
func whiteboxComparison(b *testing.B, readPeriod time.Duration, seed int64) (gt, bb float64) {
	b.Helper()
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(seed)

	profile := service.GooglePlus()
	profile.Store.PropagationBase = 2 * time.Second
	profile.Store.PropagationJitter = 500 * time.Millisecond
	profile.Store.EpochJitter = 0
	profile.Store.FastEpochProb = 0
	profile.ReadFlapProb = 0
	svc, err := service.NewSimulated(sim, net, profile, seed)
	if err != nil {
		b.Fatal(err)
	}
	monitor, err := whitebox.NewMonitor(sim, svc.Cluster(), 2*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	agents := probe.DefaultAgents(sim, time.Second, seed+1)
	cfg := probe.Config{
		Agents:      agents,
		Coordinator: simnet.Virginia,
		Test2: probe.TestConfig{
			ReadPeriod:    readPeriod,
			ReadsPerAgent: int(8*time.Second/readPeriod) + 1,
			Count:         1,
		},
	}
	runner, err := probe.NewRunner(sim, net, svc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var (
		tr  *conprobe.TestTrace
		wbs []whitebox.PairWindows
	)
	sim.Go(func() {
		if err := monitor.Start(); err != nil {
			b.Error(err)
			return
		}
		t, err := runner.RunTest2(context.Background(), 1)
		if err != nil {
			b.Error(err)
			return
		}
		tr = t
		wbs = monitor.Stop()
	})
	sim.Wait()
	if tr == nil {
		b.Fatal("test did not complete")
	}
	for _, w := range wbs {
		if w.Content.Largest > 0 {
			gt = w.Content.Largest.Seconds()
		}
	}
	// Agent pair 1-3 spans the two data centers (Oregon/DCWest vs
	// Ireland/DCEurope).
	for _, w := range core.ContentDivergenceWindows(tr) {
		if w.Pair.A == 1 && w.Pair.B == 3 {
			bb = w.Largest.Seconds()
		}
	}
	return gt, bb
}

// BenchmarkExtensionRotation runs the paper's location-rotation control:
// the last-writer role follows the agent ID, not the site.
func BenchmarkExtensionRotation(b *testing.B) {
	for _, rotate := range []int{0, 1, 2} {
		rotate := rotate
		b.Run(map[int]string{0: "identity", 1: "shift1", 2: "shift2"}[rotate], func(b *testing.B) {
			var prevalence float64
			for i := 0; i < b.N; i++ {
				res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
					Workload: probe.Workload{
						Service:    service.NameFBGroup,
						Test1Count: 10,
						Seed:       benchSeed,
						Rotate:     rotate,
					},
					Engine: probe.Engine{Lanes: 1},
				}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				rep := analysis.Analyze(res.Service, res.Traces)
				prevalence = rep.Session[core.MonotonicWrites].Prevalence()
			}
			b.ReportMetric(prevalence, "MW_%")
		})
	}
}

// BenchmarkExtensionClockSyncQuality degrades the clock-sync sample
// count and reports the Test 2 write spread it produces — the
// simultaneity the paper's methodology depends on for triggering
// divergence.
func BenchmarkExtensionClockSyncQuality(b *testing.B) {
	for _, samples := range []int{1, 5, 15} {
		samples := samples
		b.Run(fmt.Sprintf("samples%d", samples), func(b *testing.B) {
			var spread []time.Duration
			for i := 0; i < b.N; i++ {
				res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
					Workload: probe.Workload{
						Service:     service.NameBlogger,
						Test2Count:  12,
						Seed:        benchSeed,
						SyncSamples: samples,
					},
					Engine: probe.Engine{Lanes: 1},
				}, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				spread = analysis.TrueWriteSpread(res.Traces, res.TrueSkews)
			}
			cdf := conprobe.NewCDF(spread)
			b.ReportMetric(cdf.Quantile(0.5).Seconds()*1000, "spread_p50_ms")
			b.ReportMetric(cdf.Max().Seconds()*1000, "spread_max_ms")
		})
	}
}
