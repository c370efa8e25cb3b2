package analysis_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"conprobe/internal/analysis"
	"conprobe/internal/trace"
)

// TestSnapshotRoundTrip checks the checkpoint property: an aggregator
// restored from a mid-campaign snapshot and fed the remaining traces
// produces the same report as one that saw every trace.
func TestSnapshotRoundTrip(t *testing.T) {
	traces := aggregatorCampaign(t)
	half := len(traces) / 2

	full := analysis.NewAggregator("fbfeed")
	partial := analysis.NewAggregator("fbfeed")
	for _, tr := range traces[:half] {
		full.Add(tr)
		partial.Add(tr)
	}
	snap, err := partial.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := analysis.RestoreAggregator(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces[half:] {
		full.Add(tr)
		restored.Add(tr)
	}
	reportsEqual(t, full.Report(), restored.Report())
}

// TestSnapshotDeterministic checks equal states encode to equal bytes —
// the property that makes checkpoint files comparable across runs.
func TestSnapshotDeterministic(t *testing.T) {
	traces := aggregatorCampaign(t)
	a, b := analysis.NewAggregator("fbfeed"), analysis.NewAggregator("fbfeed")
	for _, tr := range traces {
		a.Add(tr)
		b.Add(tr)
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("snapshots of equal states differ:\n%s\n%s", sa, sb)
	}
}

// TestSnapshotAppendMatchesMarshal holds AppendSnapshot to json.Marshal
// of the snapshot struct, byte for byte: after every trace of a mixed
// Test 1 / Test 2 feed, for the one-test aggregators the journal
// snapshots, and for restored states a campaign does not produce — a
// null count list, strings that need escaping, more keys than the
// encoder's stack buffers hold.
func TestSnapshotAppendMatchesMarshal(t *testing.T) {
	check := func(name string, a *analysis.Aggregator) {
		t.Helper()
		want, err := analysis.MarshalSnapshot(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.AppendSnapshot([]byte("x"))[1:]; !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	check("empty", analysis.NewAggregator(""))
	lane := analysis.NewAggregator("fbfeed")
	kinds := map[trace.TestKind]bool{}
	for _, tr := range aggregatorCampaign(t) {
		lane.Add(tr)
		check(fmt.Sprintf("after test %d", tr.TestID), lane)
		one := analysis.NewAggregator("fbfeed")
		one.Add(tr)
		check(fmt.Sprintf("test %d alone", tr.TestID), one)
		kinds[tr.Kind] = true
	}
	if len(kinds) != 2 {
		t.Fatalf("the feed held test kinds %v, want both", kinds)
	}

	var perTest, combos, pairs []string
	for i := 12; i > 0; i-- {
		perTest = append(perTest, fmt.Sprintf(`{"agent":%d,"counts":[%d,1]}`, i, i))
		combos = append(combos, fmt.Sprintf(`{"combo":"%d+<&>\u2028\"","count":%d}`, i, i))
		pairs = append(pairs, fmt.Sprintf(`{"a":%d,"b":%d,"tests_total":3,"tests_with_anomaly":1,"windows":[-5,0,%d],"not_converged":2}`, i%3, i, i))
	}
	perTest = append(perTest, `{"agent":-1,"counts":null}`, `{"agent":0,"counts":[]}`)
	odd, err := analysis.RestoreAggregator([]byte(`{"version":1,"service":"a<b>\u00e9\n","test1_count":-1,"reads":7,` +
		`"collection":{"FailedOps":1,"SkippedOps":2,"RetriedOps":3,"BreakerTrips":4,"TestsWithFaults":5},` +
		`"session":[{"anomaly":1,"tests_total":2,"per_test":[` + strings.Join(perTest, ",") + `],"combos":[` + strings.Join(combos, ",") + `]}],` +
		`"divergence":[{"anomaly":5,"tests_total":9,"per_pair":[` + strings.Join(pairs, ",") + `]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	check("restored", odd)
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	if _, err := analysis.RestoreAggregator([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := analysis.RestoreAggregator([]byte(`{"version":99}`)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
}
