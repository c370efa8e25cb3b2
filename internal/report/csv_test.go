package report

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"conprobe/internal/analysis"
	"conprobe/internal/probe"
	"conprobe/internal/service"
)

func TestWriteCSVWellFormedAndComplete(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameGooglePlus,
			Test1Count: 4,
			Test2Count: 4,
			Seed:       5,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(res.Service, res.Traces)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}

	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	kinds := map[string]int{}
	for _, rec := range records {
		if len(rec) < 4 {
			t.Fatalf("short record: %v", rec)
		}
		if rec[1] != service.NameGooglePlus {
			t.Fatalf("record with wrong service: %v", rec)
		}
		kinds[rec[0]]++
	}
	// Six prevalence rows always present.
	if kinds["prevalence"] != 6 {
		t.Fatalf("prevalence rows = %d, want 6", kinds["prevalence"])
	}
	// Six pair rows (3 pairs x 2 divergence anomalies).
	if kinds["pair"] != 6 {
		t.Fatalf("pair rows = %d, want 6", kinds["pair"])
	}
	// G+ at these seeds exhibits divergence: CDF samples must appear.
	if kinds["window_cdf"] == 0 {
		t.Fatal("no window_cdf rows")
	}
}

func TestWriteCSVEmptyCampaign(t *testing.T) {
	rep := analysis.Analyze("empty", nil)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 { // just the prevalence rows
		t.Fatalf("records = %d, want 6", len(records))
	}
}
