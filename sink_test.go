package conprobe_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"conprobe"
	"conprobe/internal/checkpoint"
)

// crashAfter returns an OnTrace that fails the kill-th trace it sees, the
// way a crash after kill-1 journaled tests would.
func crashAfter(kill int) func(*conprobe.TestTrace) error {
	seen := 0
	return func(*conprobe.TestTrace) error {
		seen++
		if seen >= kill {
			return errInjectedCrash
		}
		return nil
	}
}

// journaledTests counts the tests a journal marks done, over all lanes.
func journaledTests(t *testing.T, path string) int {
	t.Helper()
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, lr := range st.Lanes {
		n += len(lr.Done)
	}
	return n
}

// progressCalls runs opts and returns every (done, total) Progress saw.
func progressCalls(t *testing.T, opts conprobe.Options) ([][2]int, error) {
	t.Helper()
	var calls [][2]int
	opts.Engine.Progress = func(done, total int) { calls = append(calls, [2]int{done, total}) }
	_, err := conprobe.Run(context.Background(), opts)
	return calls, err
}

// TestRunProgressCountsEveryTest pins Progress across concurrent lanes:
// it reports (k, total) with k rising by one to total, and a resumed
// campaign counts its journaled tests, starting at journaled+1.
func TestRunProgressCountsEveryTest(t *testing.T) {
	base := resumeBaseOptions()
	base.Engine.Parallelism = 2
	const total = 12
	rising := func(name string, calls [][2]int, from int) {
		t.Helper()
		if len(calls) != total-from+1 {
			t.Fatalf("%s: progress calls = %v, want %d through %d", name, calls, from, total)
		}
		for i, c := range calls {
			if c != [2]int{from + i, total} {
				t.Fatalf("%s: progress[%d] = %v, want {%d %d}", name, i, c, from+i, total)
			}
		}
	}
	calls, err := progressCalls(t, base)
	if err != nil {
		t.Fatal(err)
	}
	rising("uninterrupted", calls, 1)

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	crashed := base
	crashed.Durability.Checkpoint = path
	crashed.Engine.OnTrace = crashAfter(5)
	if _, err := progressCalls(t, crashed); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("crash run returned %v, want injected crash", err)
	}
	journaled := journaledTests(t, path)
	if journaled != 4 {
		t.Fatalf("the crash run journaled %d tests, want the 4 OnTrace accepted", journaled)
	}
	resumed := base
	resumed.Durability.Checkpoint = path
	resumed.Durability.Resume = true
	calls, err = progressCalls(t, resumed)
	if err != nil {
		t.Fatal(err)
	}
	rising("resumed", calls, journaled+1)
}

// TestRunSinkOrder pins the order every completed test takes through
// Run: the lane's aggregator, then OnTrace, then Progress, then the
// journal. One worker runs the lanes one after another, so each
// consumer's count is exact when another is called.
func TestRunSinkOrder(t *testing.T) {
	opts := resumeBaseOptions()
	opts.Engine.Parallelism = 1
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	opts.Durability.Checkpoint = path
	reg := conprobe.NewMetricsRegistry()
	opts.Telemetry.Metrics = reg.Scope("order")
	aggregated := func() int {
		n := 0
		for _, p := range reg.Snapshot() {
			if strings.HasPrefix(p.Name, "order_aggregator_traces_total") {
				n += int(p.Value)
			}
		}
		return n
	}
	traced, progressed := 0, 0
	opts.Engine.OnTrace = func(*conprobe.TestTrace) error {
		traced++
		if got := aggregated(); got != traced {
			t.Errorf("OnTrace #%d: %d traces aggregated, want %d: aggregation comes first", traced, got, traced)
		}
		if progressed != traced-1 {
			t.Errorf("OnTrace #%d: Progress already called %d times, want %d", traced, progressed, traced-1)
		}
		if got := journaledTests(t, path); got != traced-1 {
			t.Errorf("OnTrace #%d: %d tests journaled, want %d: the journal comes last", traced, got, traced-1)
		}
		return nil
	}
	opts.Engine.Progress = func(done, _ int) {
		progressed++
		if traced != done {
			t.Errorf("Progress(%d) after %d OnTrace calls: OnTrace comes first", done, traced)
		}
		if got := journaledTests(t, path); got != done-1 {
			t.Errorf("Progress(%d): %d tests journaled, want %d: the journal comes last", done, got, done-1)
		}
	}
	if _, err := conprobe.Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if traced != 12 || progressed != 12 {
		t.Fatalf("OnTrace saw %d tests and Progress %d, want 12 each", traced, progressed)
	}
	if got := journaledTests(t, path); got != 12 {
		t.Fatalf("%d tests journaled, want 12", got)
	}
}

// resumeWithOtherTraces crashes a campaign journaled with crashDiscards
// and resumes it with the opposite DiscardTraces setting.
func resumeWithOtherTraces(t *testing.T, crashDiscards bool) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	crashed := resumeBaseOptions()
	crashed.Engine.Parallelism = 1
	crashed.Engine.DiscardTraces = crashDiscards
	crashed.Durability.Checkpoint = path
	crashed.Engine.OnTrace = crashAfter(5)
	if _, err := conprobe.Run(context.Background(), crashed); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("crash run returned %v, want injected crash", err)
	}
	resumed := resumeBaseOptions()
	resumed.Engine.DiscardTraces = !crashDiscards
	resumed.Durability.Checkpoint = path
	resumed.Durability.Resume = true
	out, err := conprobe.Run(context.Background(), resumed)
	if err == nil {
		t.Logf("resumed Result holds %d traces", len(out.Traces))
	}
	return err
}

// A journal written under DiscardTraces holds no traces, so resuming it
// with traces kept would return a Result missing every journaled test.
func TestResumeRefusesJournalWithoutTraces(t *testing.T) {
	err := resumeWithOtherTraces(t, true)
	if err == nil || !strings.Contains(err.Error(), "DiscardTraces") {
		t.Fatalf("resuming a trace-less journal without DiscardTraces: err = %v, want a refusal", err)
	}
}

// A journal that keeps its traces would fill the Result of a campaign
// that discards them.
func TestResumeRefusesJournalWithTracesWhenDiscarding(t *testing.T) {
	err := resumeWithOtherTraces(t, false)
	if err == nil || !strings.Contains(err.Error(), "DiscardTraces") {
		t.Fatalf("resuming a trace-keeping journal with DiscardTraces: err = %v, want a refusal", err)
	}
}
