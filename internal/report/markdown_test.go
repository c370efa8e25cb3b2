package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"conprobe/internal/analysis"
	"conprobe/internal/probe"
	"conprobe/internal/service"
)

func TestWriteMarkdown(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameFBGroup,
			Test1Count: 3,
			Test2Count: 2,
			Seed:       6,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(res.Service, res.Traces)
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## fbgroup",
		"### Anomaly prevalence (Figure 3)",
		"| anomaly | tests with anomaly |",
		"| monotonic writes |",
		"### Monotonic writes per test",
		"Agent combinations among violating tests:",
		"- `1+2+3`:",
		"### Content divergence by agent pair",
		"| oregon-tokyo |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
	// Every table row must have the same column count as its header.
	var cols int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "|") {
			cols = 0
			continue
		}
		n := strings.Count(line, "|")
		if cols == 0 {
			cols = n
		} else if n != cols {
			t.Fatalf("ragged table row %q", line)
		}
	}
}

func TestWriteMarkdownEmpty(t *testing.T) {
	rep := analysis.Analyze("empty", nil)
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "## empty") {
		t.Fatal("header missing")
	}
}

func TestTitleHelper(t *testing.T) {
	if title("") != "" || title("abc def") != "Abc def" {
		t.Fatal("title helper wrong")
	}
}
