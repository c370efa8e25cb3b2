package report

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/service"
)

func TestHelperFunctions(t *testing.T) {
	if agentLocation(1) != "oregon" || agentLocation(2) != "tokyo" || agentLocation(3) != "ireland" {
		t.Fatal("agent locations wrong")
	}
	if agentLocation(9) != "agent9" {
		t.Fatal("unknown agent fallback wrong")
	}
	if pairLabel(core.Pair{A: 1, B: 3}) != "oregon-ireland" {
		t.Fatal("pair label wrong")
	}
	if fmtDur(0) != "-" {
		t.Fatal("zero duration should render as dash")
	}
	if fmtDur(1234*time.Millisecond) != "1.234s" {
		t.Fatalf("fmtDur = %s", fmtDur(1234*time.Millisecond))
	}
	names := map[core.Anomaly]string{
		core.ReadYourWrites:     "RYW",
		core.MonotonicWrites:    "MW",
		core.MonotonicReads:     "MR",
		core.WritesFollowsReads: "WFR",
		core.ContentDivergence:  "ContentDiv",
		core.OrderDivergence:    "OrderDiv",
	}
	for a, want := range names {
		if shortName(a) != want {
			t.Fatalf("shortName(%v) = %s", a, shortName(a))
		}
	}
	if shortName(core.Anomaly(42)) == "" {
		t.Fatal("unknown anomaly shortName empty")
	}
}

func TestWriteReportCleanServiceOmitsAnomalySections(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameBlogger,
			Test1Count: 2,
			Test2Count: 2,
			Seed:       3,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(res.Service, res.Traces)
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Prevalence block always present; per-anomaly detail sections only
	// when violations occurred.
	if !strings.Contains(out, "anomaly prevalence") {
		t.Fatal("prevalence block missing")
	}
	if strings.Contains(out, "observations per violating test") {
		t.Fatalf("clean service rendered detail sections:\n%s", out)
	}
	// Divergence pair tables are always rendered (they carry zeros).
	if !strings.Contains(out, "content divergence by agent pair") {
		t.Fatal("pair table missing")
	}
	// No windows => no CDF plot.
	if strings.Contains(out, "window CDF") {
		t.Fatal("plot rendered without samples")
	}
}

func TestSortedKeysHelper(t *testing.T) {
	got := sortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("sortedKeys = %v", got)
	}
}

func TestSparkline(t *testing.T) {
	got := Sparkline([]float64{0, 50, 100, -5, 200})
	runes := []rune(got)
	if len(runes) != 5 {
		t.Fatalf("len = %d", len(runes))
	}
	if runes[0] != ' ' || runes[2] != '█' || runes[3] != ' ' || runes[4] != '█' {
		t.Fatalf("sparkline = %q", got)
	}
}

func TestWriteStability(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameFBGroup,
			Test2Count: 25,
			Seed:       5,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStability(&buf, res.Traces, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "campaign stability") {
		t.Fatalf("header missing:\n%s", out)
	}
	// The injected fault window must show as a content-divergence row.
	if !strings.Contains(out, "ContentDiv") {
		t.Fatalf("fault window invisible:\n%s", out)
	}
	// Quiet anomalies are omitted.
	if strings.Contains(out, "OrderDiv") {
		t.Fatalf("quiet anomaly rendered:\n%s", out)
	}
}

func TestWriteComparison(t *testing.T) {
	a := analysis.Analyze("svc", nil)
	b := analysis.Analyze("svc", nil)
	cmp := analysis.Compare(a, b)
	var buf bytes.Buffer
	if err := WriteComparison(&buf, "svc baseline", cmp); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"comparison: svc baseline", "RYW", "compatible", "window KS distance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIFFERS") {
		t.Fatal("identical campaigns flagged")
	}
}
