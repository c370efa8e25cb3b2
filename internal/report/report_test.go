package report

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/probe"
	"conprobe/internal/service"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]time.Duration{ms(300), ms(100), ms(200), ms(400)})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Quantile(0.5); got != ms(200) {
		t.Fatalf("p50 = %v", got)
	}
	if got := c.Quantile(1); got != ms(400) {
		t.Fatalf("p100 = %v", got)
	}
	if got := c.Quantile(0); got != ms(100) {
		t.Fatalf("p0 = %v", got)
	}
	if got := c.Max(); got != ms(400) {
		t.Fatalf("Max = %v", got)
	}
	if got := c.Mean(); got != ms(250) {
		t.Fatalf("Mean = %v", got)
	}
	if got := c.At(ms(250)); got != 0.5 {
		t.Fatalf("At(250ms) = %v", got)
	}
	if got := c.At(ms(400)); got != 1 {
		t.Fatalf("At(max) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.N() != 0 || c.Quantile(0.5) != 0 || c.At(ms(1)) != 0 || c.Mean() != 0 || c.Max() != 0 {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, a, b uint16) bool {
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r) * time.Millisecond
		}
		c := NewCDF(samples)
		lo, hi := time.Duration(a)*time.Millisecond, time.Duration(b)*time.Millisecond
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []time.Duration{ms(3), ms(1)}
	c := NewCDF(in)
	in[0] = ms(999)
	if c.Max() != ms(3) {
		t.Fatal("CDF aliased caller slice")
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable("name", "value")
	tab.AddRow("x", "1")
	tab.AddRow("longer-name", "22", "extra-cell-dropped")
	tab.AddRow("short")
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("rule line = %q", lines[1])
	}
	if !strings.Contains(lines[3], "longer-name") || strings.Contains(lines[3], "extra-cell") {
		t.Fatalf("row line = %q", lines[3])
	}
}

func TestBarBounds(t *testing.T) {
	full := Bar("x", 100, 10)
	if !strings.Contains(full, strings.Repeat("#", 10)) {
		t.Fatalf("full bar = %q", full)
	}
	empty := Bar("x", 0, 10)
	if strings.Contains(empty, "#") {
		t.Fatalf("empty bar = %q", empty)
	}
	over := Bar("x", 250, 10)
	if !strings.Contains(over, "100.0%") {
		t.Fatalf("clamped bar = %q", over)
	}
	neg := Bar("x", -5, 10)
	if !strings.Contains(neg, "  0.0%") {
		t.Fatalf("negative bar = %q", neg)
	}
	if !strings.Contains(Bar("x", 50, 0), "#") {
		t.Fatal("zero width should default")
	}
}

func TestWriteReportEndToEnd(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameFBGroup,
			Test1Count: 3,
			Test2Count: 3,
			Seed:       21,
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
	for _, want := range []string{
		"fbgroup", "3 test1 + 3 test2",
		"anomaly prevalence", "RYW", "MW", "ContentDiv",
		"content divergence by agent pair",
		"oregon-tokyo",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
