package probe

import (
	"bytes"
	"context"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/core"
	"conprobe/internal/faultinject"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// resilientOpts is the acceptance drill from the issue: a Blogger
// campaign against an endpoint injecting 20% read and 10% write
// failures, collected through the retry/breaker middleware.
func resilientOpts(seed int64) Options {
	return Options{
		Workload: Workload{
			Service:    service.NameBlogger,
			Test1Count: 6,
			Test2Count: 4,
			Seed:       seed,
		},
		Engine: Engine{Lanes: 1},
		Resilience: Resilience{
			Retry: &resilience.RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   200 * time.Millisecond,
			},
			Breaker: &resilience.BreakerConfig{
				FailureThreshold: 10,
				OpenFor:          5 * time.Second,
			},
		},
		Faults: &faultinject.Config{
			ReadFailRate:  0.2,
			WriteFailRate: 0.1,
		},
	}
}

func marshalTraces(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	for _, tr := range res.Traces {
		if err := tw.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestResilientCampaignCompletesWithoutManufacturedAnomalies(t *testing.T) {
	res, err := SimulateConcurrent(context.Background(), resilientOpts(61), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 10 {
		t.Fatalf("campaign produced %d traces, want 10", len(res.Traces))
	}
	for _, tr := range res.Traces {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// No duplicated retried writes: every read observes each post at
		// most once, and no trace records the same write ID twice.
		seen := make(map[trace.WriteID]bool)
		for _, w := range tr.Writes {
			if seen[w.ID] {
				t.Fatalf("trace %d records write %s twice", tr.TestID, w.ID)
			}
			seen[w.ID] = true
		}
		for _, r := range tr.Reads {
			obs := make(map[trace.WriteID]bool)
			for _, id := range r.Observed {
				if obs[id] {
					t.Fatalf("trace %d: read observed %s twice (duplicated retried write)", tr.TestID, id)
				}
				obs[id] = true
			}
		}
	}

	rep := analysis.Analyze(res.Service, res.Traces)
	// Blogger is anomaly-free in simulation; injected collection faults
	// absorbed by the resilience layer must not manufacture anomalies.
	for _, a := range core.SessionAnomalies() {
		if p := rep.Session[a].Prevalence(); p != 0 {
			t.Errorf("%v prevalence = %.1f%% under fault injection, want 0", a, p)
		}
	}
	for _, a := range core.DivergenceAnomalies() {
		if p := rep.Divergence[a].Prevalence(); p != 0 {
			t.Errorf("%v prevalence = %.1f%% under fault injection, want 0", a, p)
		}
	}

	// The faults are accounted, not hidden: the retry layer must have
	// worked (20%/10% over hundreds of ops cannot leave zero retries),
	// and the analysis must report a collection-fault rate.
	if rep.Collection.RetriedOps == 0 {
		t.Error("no retries recorded under 20%/10% fault injection")
	}
	if rep.Collection.FailedOps == 0 && rep.Collection.SkippedOps == 0 {
		// Retries can in principle absorb everything, but across this
		// many operations at MaxAttempts=4 some budget exhaustion is
		// expected; tolerate zero only if retries were plentiful.
		if rep.Collection.RetriedOps < 10 {
			t.Errorf("collection stats implausibly clean: %+v", rep.Collection)
		}
	}
	if rep.Collection.TestsWithFaults > 0 && rep.CollectionFaultRate() == 0 {
		t.Error("tests had faults but CollectionFaultRate is zero")
	}
}

func TestResilientCampaignBitReproducible(t *testing.T) {
	r1, err := SimulateConcurrent(context.Background(), resilientOpts(62), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateConcurrent(context.Background(), resilientOpts(62), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := marshalTraces(t, r1), marshalTraces(t, r2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different fault-injected traces")
	}

	// A different seed draws a different fault schedule (sanity check
	// that determinism is keyed, not constant).
	r3, err := SimulateConcurrent(context.Background(), resilientOpts(63), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, marshalTraces(t, r3)) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestResilientCampaignSurvivesOutage(t *testing.T) {
	// A scheduled outage long enough to trip every breaker: the campaign
	// must degrade gracefully (skip-and-account) and recover after the
	// window, not abort.
	// Tests begin a second or two into the campaign (clock sync + start
	// delay) and their operations run within the first half minute; the
	// inter-test gap is minutes. This window blankets the first test's
	// operations and heals with plenty of its 90s timeout left.
	opts := resilientOpts(64)
	opts.Workload.Test1Count = 2
	opts.Workload.Test2Count = 0
	opts.Faults = &faultinject.Config{
		Outages: []faultinject.Outage{{Start: time.Second, End: 20 * time.Second}},
	}
	opts.Resilience.Breaker = &resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 5 * time.Second}
	res, err := SimulateConcurrent(context.Background(), opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("campaign produced %d traces, want 2", len(res.Traces))
	}
	rep := analysis.Analyze(res.Service, res.Traces)
	if rep.Collection.FailedOps+rep.Collection.SkippedOps == 0 {
		t.Fatal("a 60s outage left no collection faults")
	}
	if rep.Collection.BreakerTrips == 0 {
		t.Fatal("a 60s outage tripped no breakers")
	}
	// Operations after the outage succeeded again: some test collected
	// reads (the campaign was not dead end-to-end).
	total := 0
	for _, tr := range res.Traces {
		total += len(tr.Reads)
	}
	if total == 0 {
		t.Fatal("no reads survived the campaign")
	}
}
