package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"conprobe/internal/trace"
)

func TestRunSingleServiceReport(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-service", "blogger", "-test1", "2", "-test2", "2", "-seed", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "blogger") || !strings.Contains(got, "anomaly prevalence") {
		t.Fatalf("unexpected report:\n%s", got)
	}
}

func TestRunAllServices(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-test1", "1", "-test2", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"googleplus", "blogger", "fbfeed", "fbgroup"} {
		if !strings.Contains(out.String(), svc) {
			t.Fatalf("report missing %s", svc)
		}
	}
}

func TestRunWritesTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-service", "fbgroup", "-test1", "2", "-test2", "1", "-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := trace.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("traces = %d, want 3", len(traces))
	}
}

func TestRunCSVOutput(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-service", "blogger", "-test1", "1", "-test2", "1", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "prevalence,blogger,") {
		t.Fatalf("csv output = %q...", out.String()[:40])
	}
}

func TestRunMaskedCampaign(t *testing.T) {
	var raw, masked bytes.Buffer
	if err := run(context.Background(), []string{"-service", "fbfeed", "-test1", "3", "-test2", "0", "-csv"}, &raw); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-service", "fbfeed", "-test1", "3", "-test2", "0", "-csv", "-mask"}, &masked); err != nil {
		t.Fatal(err)
	}
	// Masked campaign must report 0.00 RYW prevalence.
	if !strings.Contains(masked.String(), "read your writes,0.00") {
		t.Fatalf("masked csv:\n%s", masked.String())
	}
	if strings.Contains(raw.String(), "read your writes,0.00") {
		t.Fatalf("raw fbfeed campaign shows no RYW:\n%s", raw.String())
	}
}

func TestRunDumpProfileRoundTrip(t *testing.T) {
	var dumped bytes.Buffer
	if err := run(context.Background(), []string{"-service", "fbgroup", "-dump-profile"}, &dumped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dumped.String(), `"reverse_ties": true`) {
		t.Fatalf("dump missing fbgroup policy: %s", dumped.String())
	}
	// The dumped profile loads back through -profile.
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, dumped.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-service", "fbgroup", "-test1", "1", "-test2", "0", "-profile", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fbgroup") {
		t.Fatalf("custom profile campaign failed: %s", out.String())
	}
}

func TestRunProfileNeedsSingleService(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-profile", "x.json"}, &out); err == nil {
		t.Fatal("-profile with -service all accepted")
	}
	if err := run(context.Background(), []string{"-dump-profile"}, &out); err == nil {
		t.Fatal("-dump-profile with -service all accepted")
	}
	if err := run(context.Background(), []string{"-service", "fbgroup", "-profile", "/missing.json"}, &out); err == nil {
		t.Fatal("missing profile file accepted")
	}
}

// TestRunMarkdownMergesLaneCounts renders a two-worker campaign as
// Markdown and checks the per-lane test counts were merged.
func TestRunMarkdownMergesLaneCounts(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-service", "fbgroup", "-test1", "4", "-test2", "0", "-parallelism", "2", "-md"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "## fbgroup") {
		t.Fatalf("markdown output: %s", out.String())
	}
	if !strings.Contains(out.String(), "4 Test 1 + 0 Test 2") {
		t.Fatalf("lane-merged counts wrong: %s", out.String())
	}
}

func TestRunHTMLOutput(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-service", "all", "-test1", "1", "-test2", "1", "-html"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, "<!DOCTYPE html>") != 1 {
		t.Fatal("want exactly one HTML page")
	}
	for _, svc := range []string{"googleplus", "blogger", "fbfeed", "fbgroup"} {
		if !strings.Contains(got, "<h2>"+svc+"</h2>") {
			t.Fatalf("page missing %s section", svc)
		}
	}
}

func TestRunRejectsUnknownService(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-service", "myspace", "-test1", "1"}, &out); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	// The second campaign engine and its flag are gone.
	if err := run(context.Background(), []string{"-service", "blogger", "-test1", "1", "-sim-shards", "2"}, &out); err == nil {
		t.Fatal("-sim-shards accepted")
	}
	// The journal no longer compacts, so there is no interval to set.
	err := run(context.Background(), []string{"-service", "blogger", "-test1", "1", "-checkpoint-every", "8"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-checkpoint-every: err = %v, want \"flag provided but not defined\"", err)
	}
}

// runOutput runs the CLI with args plus a -trace file and returns the
// report bytes and the trace file's bytes.
func runOutput(t *testing.T, args ...string) (report, traces []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	var out bytes.Buffer
	if err := run(context.Background(), append(args, "-trace", path), &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	traces, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), traces
}

// There is one campaign path: no engine flag means one lane, and says
// so byte for byte in every report format and in the -trace file.
func TestRunDefaultIsOneLane(t *testing.T) {
	base := []string{"-service", "all", "-test1", "3", "-test2", "3", "-seed", "3", "-alternate", "2",
		"-inject-read-fail", "0.2", "-retries", "3"}
	for _, format := range []string{"", "-json", "-csv", "-md", "-html"} {
		args := slices.Clip(base)
		if format != "" {
			args = append(args, format)
		}
		wantRep, wantTr := runOutput(t, args...)
		gotRep, gotTr := runOutput(t, append(slices.Clip(args), "-lanes", "1", "-parallelism", "1")...)
		if len(wantRep) == 0 || len(wantTr) == 0 {
			t.Fatalf("format %q: empty output", format)
		}
		if !bytes.Equal(gotRep, wantRep) {
			t.Errorf("format %q: report differs between default flags and -lanes 1 -parallelism 1", format)
		}
		if !bytes.Equal(gotTr, wantTr) {
			t.Errorf("format %q: -trace file differs between default flags and -lanes 1 -parallelism 1", format)
		}
	}
}

// Checkpoint, crash drill and resume need no engine flag: the resumed
// default-path campaign reproduces the uninterrupted report exactly.
func TestRunResumeWithoutEngineFlags(t *testing.T) {
	common := slices.Clip([]string{"-service", "fbfeed", "-test1", "4", "-test2", "4", "-seed", "5", "-json",
		"-inject-read-fail", "0.15", "-retries", "2", "-breaker-threshold", "3", "-breaker-open", "90s"})
	var want bytes.Buffer
	if err := run(context.Background(), common, &want); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	var out bytes.Buffer
	err := run(context.Background(), append(common, "-checkpoint", ckpt, "-abort-after", "3"), &out)
	if err == nil || !strings.Contains(err.Error(), "aborted after 3 completed tests") {
		t.Fatalf("crash drill: err = %v, want the abort-after error", err)
	}
	out.Reset()
	if err := run(context.Background(), append(common, "-checkpoint", ckpt, "-resume"), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("resumed report differs from the uninterrupted one:\n%s\nwant:\n%s", out.Bytes(), want.Bytes())
	}
}

// A resume cannot rebuild the -trace archive (the CLI's journal holds no
// traces), so -resume with -trace is refused before the archive the
// crashed run left is touched.
func TestRunResumeRefusesTrace(t *testing.T) {
	dir := t.TempDir()
	ckpt, archive := filepath.Join(dir, "c.ckpt"), filepath.Join(dir, "t.jsonl")
	common := []string{"-service", "fbfeed", "-test1", "4", "-test2", "4", "-seed", "5", "-checkpoint", ckpt, "-trace", archive}
	var out bytes.Buffer
	err := run(context.Background(), append(slices.Clip(common), "-abort-after", "3"), &out)
	if err == nil || !strings.Contains(err.Error(), "aborted after 3 completed tests") {
		t.Fatalf("crash drill: err = %v, want the abort-after error", err)
	}
	before, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), append(slices.Clip(common), "-resume"), &out)
	if err == nil || !strings.Contains(err.Error(), "-resume cannot be combined with -trace") {
		t.Fatalf("-resume -trace: err = %v, want it refused", err)
	}
	after, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || !bytes.Equal(after, before) {
		t.Fatalf("the refused resume changed the pre-crash archive (%d bytes, now %d)", len(before), len(after))
	}
}

// An interrupt on the default (sequential) path must reach the campaign:
// run returns context.Canceled well before the campaign could finish,
// and the -trace file holds every test completed so far, readable.
func TestRunSequentialInterruptKeepsTraces(t *testing.T) {
	const total = 100000 // tens of seconds if the interrupt were swallowed
	path := filepath.Join(t.TempDir(), "t.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- run(ctx, []string{"-service", "fbgroup", "-test1", strconv.Itoa(total), "-test2", "0", "-trace", path}, &out)
	}()
	// Interrupt once traces have started streaming to the file.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no trace reached the -trace file")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after the interrupt")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traces, err := trace.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("partial trace file unreadable: %v", err)
	}
	if len(traces) == 0 || len(traces) >= total {
		t.Fatalf("partial trace file holds %d traces, want some but not all %d", len(traces), total)
	}
}
