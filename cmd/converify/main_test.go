package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// traceFile writes a small campaign's traces to a temp JSONL file.
func traceFile(t *testing.T, svcs ...string) string {
	return traceFileN(t, 6, svcs...)
}

func traceFileN(t *testing.T, n int, svcs ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, svc := range svcs {
		res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
			Workload: probe.Workload{
				Service:    svc,
				Test1Count: n,
				Test2Count: n,
				Seed:       5,
			},
			Engine: probe.Engine{Lanes: 4},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.Traces {
			if err := w.Write(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func expectFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyPasses(t *testing.T) {
	traces := traceFile(t, service.NameBlogger)
	exp := expectFile(t, `{"blogger": {"*": {"min": 0, "max": 0}}}`)
	var out bytes.Buffer
	code, err := run([]string{"-expect", exp, traces}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("code = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "all expectations met") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestVerifyFails(t *testing.T) {
	traces := traceFile(t, service.NameFBGroup)
	// FBGroup has ~90% MW: expecting zero must fail.
	exp := expectFile(t, `{"fbgroup": {"monotonic writes": {"min": 0, "max": 0}}}`)
	var out bytes.Buffer
	code, err := run([]string{"-expect", exp, traces}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("code = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL  fbgroup monotonic writes") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestVerifySkipsUnknownService(t *testing.T) {
	traces := traceFile(t, service.NameBlogger)
	exp := expectFile(t, `{"othersvc": {"*": {"min": 0, "max": 0}}}`)
	var out bytes.Buffer
	code, err := run([]string{"-expect", exp, traces}, nil, &out)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "SKIP  blogger") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestVerifyUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code, err := run(nil, nil, &out); err == nil || code != 2 {
		t.Fatal("missing -expect accepted")
	}
	exp := expectFile(t, `{}`)
	if code, err := run([]string{"-expect", exp, "a", "b"}, nil, &out); err == nil || code != 2 {
		t.Fatal("extra args accepted")
	}
	if code, err := run([]string{"-expect", "/missing.json"}, nil, &out); err == nil || code != 2 {
		t.Fatal("missing expectations file accepted")
	}
	bad := expectFile(t, `{"x": {"*": {"min": "zero"}}}`)
	if code, err := run([]string{"-expect", bad}, strings.NewReader(""), &out); err == nil || code != 2 {
		t.Fatal("bad expectations accepted")
	}
	if code, err := run([]string{"-expect", exp}, strings.NewReader(""), &out); err == nil || code != 2 {
		t.Fatal("empty trace input accepted")
	}
}

// TestShippedExpectationsHold runs a moderate campaign for every service
// against the expectations file shipped in docs/ — the same regression
// gate EXPERIMENTS.md relies on. The expectations are paper-scale: a
// campaign must be long enough that fbgroup's scripted nine-test Tokyo
// partition stays under its 5% content-divergence ceiling.
func TestShippedExpectationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-service campaign")
	}
	traces := traceFileN(t, 240, service.ProfileNames()...)
	var out bytes.Buffer
	code, err := run([]string{"-expect", "../../docs/expectations.json", traces}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("shipped expectations violated:\n%s", out.String())
	}
}

func TestVerifyFaultRateGate(t *testing.T) {
	// A clean simulated campaign has a 0% collection-fault rate: any
	// non-negative bound passes, and the line is reported.
	traces := traceFile(t, service.NameBlogger)
	exp := expectFile(t, `{"blogger": {"*": {"min": 0, "max": 100}}}`)
	var out bytes.Buffer
	code, err := run([]string{"-expect", exp, "-max-fault-rate", "0", traces}, nil, &out)
	if err != nil || code != 0 {
		t.Fatalf("code %d, err %v:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "collection fault rate: 0.00% within 0.00%") {
		t.Fatalf("no fault-rate line:\n%s", out.String())
	}
	// Negative (default) disables the gate entirely.
	out.Reset()
	code, err = run([]string{"-expect", exp, traces}, nil, &out)
	if err != nil || code != 0 {
		t.Fatalf("code %d, err %v", code, err)
	}
	if strings.Contains(out.String(), "fault rate") {
		t.Fatalf("gate ran while disabled:\n%s", out.String())
	}
}

func TestVerifyFaultRateGateFails(t *testing.T) {
	// Tag a trace with failed operations: the rate exceeds a 0% bound
	// and converify exits 1 even though every anomaly is in range.
	path := traceFile(t, service.NameBlogger)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := trace.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	traces[0].FailedOps = map[trace.AgentID]int{1: 3}
	out2 := filepath.Join(t.TempDir(), "faulty.jsonl")
	g, err := os.Create(out2)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(g)
	for _, tr := range traces {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	exp := expectFile(t, `{"blogger": {"*": {"min": 0, "max": 100}}}`)
	var out bytes.Buffer
	code, err := run([]string{"-expect", exp, "-max-fault-rate", "0", out2}, nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("code %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL  blogger collection fault rate") {
		t.Fatalf("no FAIL line:\n%s", out.String())
	}
}
