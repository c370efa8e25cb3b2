package report

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"conprobe/internal/analysis"
	"conprobe/internal/probe"
	"conprobe/internal/service"
)

func TestWriteJSONStructure(t *testing.T) {
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameFBGroup,
			Test1Count: 3,
			Test2Count: 2,
			Seed:       8,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Analyze(res.Service, res.Traces)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back ReportJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if back.Service != service.NameFBGroup || back.Test1Count != 3 || back.Test2Count != 2 {
		t.Fatalf("envelope = %+v", back)
	}
	if len(back.Session) != 4 || len(back.Divergence) != 2 {
		t.Fatalf("sections = %d/%d", len(back.Session), len(back.Divergence))
	}
	// FBGroup always exhibits MW; it must survive the round trip.
	var mw *SessionJSON
	for i := range back.Session {
		if back.Session[i].Anomaly == "monotonic writes" {
			mw = &back.Session[i]
		}
	}
	if mw == nil || mw.TestsWithAnomaly == 0 || len(mw.PerAgent) == 0 {
		t.Fatalf("MW section = %+v", mw)
	}
	for _, d := range back.Divergence {
		if len(d.Pairs) != 3 {
			t.Fatalf("pairs = %+v", d.Pairs)
		}
	}
}

func TestToJSONEmptyReport(t *testing.T) {
	rep := analysis.Analyze("empty", nil)
	rj := ToJSON(rep)
	if rj.Service != "empty" || len(rj.Session) != 4 || len(rj.Divergence) != 2 {
		t.Fatalf("empty report JSON = %+v", rj)
	}
	for _, s := range rj.Session {
		if s.PrevalencePct != 0 || s.PerAgent != nil {
			t.Fatalf("session = %+v", s)
		}
	}
}
