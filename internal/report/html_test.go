package report

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/probe"
	"conprobe/internal/service"
)

func TestWriteHTMLPage(t *testing.T) {
	var reps []*analysis.Report
	for _, svc := range []string{service.NameBlogger, service.NameFBGroup} {
		res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
			Workload: probe.Workload{
				Service:    svc,
				Test1Count: 3,
				Test2Count: 3,
				Seed:       4,
			},
			Engine: probe.Engine{Lanes: 1},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, analysis.Analyze(res.Service, res.Traces))
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, reps); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"<h2>blogger</h2>",
		"<h2>fbgroup</h2>",
		"Anomaly prevalence",
		"monotonic writes per test",
		"content divergence by agent pair",
		"oregon-tokyo",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("html missing %q", want)
		}
	}
	// Blogger section must not carry session detail tables.
	bloggerSec := out[strings.Index(out, "<h2>blogger</h2>"):strings.Index(out, "<h2>fbgroup</h2>")]
	if strings.Contains(bloggerSec, "per test (Figures") {
		t.Fatal("clean service rendered session tables")
	}
}

func TestWriteHTMLIncludesSVGWhenWindowsExist(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameGooglePlus,
			Test2Count: 15,
			Seed:       2,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(res.Service, res.Traces)
	var buf bytes.Buffer
	if err := WriteHTML(&buf, []*analysis.Report{rep}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("no SVG chart rendered despite divergence windows")
	}
	if !strings.Contains(buf.String(), "stroke=\"#2563eb\"") {
		t.Fatal("series path missing")
	}
}

func TestSvgCDFEmpty(t *testing.T) {
	if svgCDF(nil, 100, 100) != "" {
		t.Fatal("empty series should render nothing")
	}
	zero := NewCDF(nil)
	if svgCDF([]LabeledCDF{{Label: "x", CDF: zero}}, 100, 100) != "" {
		t.Fatal("zero-sample series should render nothing")
	}
}

func TestSvgCDFEscapesLabels(t *testing.T) {
	c := NewCDF([]time.Duration{time.Second})
	out := svgCDF([]LabeledCDF{{Label: "<script>", CDF: c}}, 400, 200)
	if strings.Contains(out, "<script>") {
		t.Fatal("label not escaped")
	}
	if !strings.Contains(out, "&lt;script&gt;") {
		t.Fatal("escaped label missing")
	}
}
