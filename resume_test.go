package conprobe_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conprobe"
	"conprobe/internal/checkpoint"
	"conprobe/internal/faultinject"
	"conprobe/internal/probe"
	"conprobe/internal/resilience"
)

var errInjectedCrash = errors.New("injected crash")

func resumeBaseOptions() conprobe.Options {
	return conprobe.Options{
		Workload: conprobe.Workload{
			Service:    conprobe.ServiceFBFeed,
			Test1Count: 6,
			Test2Count: 6,
			Seed:       5,
		},
		Engine: conprobe.Engine{Lanes: 4},
	}
}

// renderOutput canonicalizes a campaign's full output — the rendered
// report plus every trace as JSON Lines (via the shared renderRun
// helper) — so byte comparison covers both the analysis and the data.
func renderOutput(t *testing.T, out *conprobe.RunResult) string {
	t.Helper()
	traces, rep := renderRun(t, out)
	return string(rep) + string(traces)
}

// TestResumeByteIdentical is the kill-and-resume sweep: a campaign
// killed at its k-th completed test and resumed from its journal must
// produce byte-identical output to an uninterrupted run, at any
// parallelism. Kill 1 is the fresh-start case: the crash stops the run
// before its first test is journaled, so the resume starts from an empty
// journal. Every later kill resumes at least one lane from what the
// journal folded. The overload campaign's kill point resumes every
// journaled lane inside its overload window, so the rebuilt world must
// shed exactly as the lived one did.
func TestResumeByteIdentical(t *testing.T) {
	for _, c := range []struct {
		name         string
		base         conprobe.Options
		kills        []int
		insideWindow bool
	}{
		{"base", resumeBaseOptions(), []int{1, 3, 5, 8, 10}, false},
		{"overload", overloadOptions(), []int{2}, true},
	} {
		base := c.base
		ref, err := conprobe.Run(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		want := renderOutput(t, ref)

		for _, par := range []int{1, 8} {
			for _, kill := range c.kills {
				path := filepath.Join(t.TempDir(), "campaign.ckpt")

				crashed := base
				crashed.Engine.Parallelism = par
				crashed.Durability.Checkpoint = path
				seen := 0
				crashed.Engine.OnTrace = func(tr *conprobe.TestTrace) error {
					seen++
					if seen >= kill {
						return errInjectedCrash
					}
					return nil
				}
				if _, err := conprobe.Run(context.Background(), crashed); !errors.Is(err, errInjectedCrash) {
					t.Fatalf("%s par %d kill %d: crash run returned %v, want injected crash", c.name, par, kill, err)
				}
				st, err := checkpoint.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case kill == 1 && len(st.Lanes) != 0:
					t.Fatalf("%s par %d kill 1: %d lanes journaled a test, want a fresh start", c.name, par, len(st.Lanes))
				case kill > 1 && len(st.Lanes) == 0:
					t.Fatalf("%s par %d kill %d: no lane journaled a test", c.name, par, kill)
				}
				if c.insideWindow {
					epoch := base.Workload.Epoch()
					for l, lr := range st.Lanes {
						if at := lr.Next.Sub(epoch); at < overloadAt || at >= overloadUntil {
							t.Fatalf("%s par %d kill %d: lane %d resumes at %v, outside the window", c.name, par, kill, l, at)
						}
					}
				}

				resumed := base
				resumed.Engine.Parallelism = par
				resumed.Durability.Checkpoint = path
				resumed.Durability.Resume = true
				out, err := conprobe.Run(context.Background(), resumed)
				if err != nil {
					t.Fatalf("%s par %d kill %d: resume: %v", c.name, par, kill, err)
				}
				if got := renderOutput(t, out); got != want {
					t.Errorf("%s par %d kill %d: resumed output differs from uninterrupted run", c.name, par, kill)
				}
			}
		}
	}
}

// breakerResumeOptions is a campaign whose injected faults make the
// resilience middleware do real work — retries, recoveries and breaker
// trips — so resuming it exercises the journaled middleware state.
func breakerResumeOptions() conprobe.Options {
	opts := resumeBaseOptions()
	// An outage blanket over each lane's first test trips every breaker;
	// the background fail rates keep re-tripping them later, so open
	// windows, failure streaks and half-open recoveries all land on
	// checkpoint boundaries. The shape is chosen so that state genuinely
	// crosses those boundaries: OpenFor stays below the inter-test gap
	// (the pre-test reset is admitted as a half-open probe instead of
	// aborting against a still-open breaker), FailureThreshold exceeds
	// MaxAttempts (a failure streak can survive a test end without
	// tripping), and HalfOpenSuccesses > 1 (a breaker that tripped late
	// in one test is still probing during the next).
	opts.Faults = &faultinject.Config{
		WriteFailRate: 0.15,
		ReadFailRate:  0.15,
		Outages:       []faultinject.Outage{{Start: time.Second, End: 20 * time.Second}},
	}
	opts.Resilience.Retry = &resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond}
	opts.Resilience.Breaker = &resilience.BreakerConfig{
		FailureThreshold:  3,
		OpenFor:           90 * time.Second,
		HalfOpenSuccesses: 3,
	}
	return opts
}

// TestResumeWithBreakerByteIdentical is the breaker half of the
// kill-and-resume sweep: breaker position and retry counters are
// journaled per lane and rewound on resume, so a campaign running with
// a circuit breaker must also reproduce the uninterrupted run's output
// byte for byte.
func TestResumeWithBreakerByteIdentical(t *testing.T) {
	base := breakerResumeOptions()
	ref, err := conprobe.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutput(t, ref)

	// Sequential lanes make each kill point a deterministic checkpoint
	// boundary, and these kills each land one or two tests INTO a lane,
	// so the resumed lane restarts mid-sequence from journaled
	// middleware state rather than replaying the lane from scratch.
	// kill=8 in particular resumes lane 2 right after its first test,
	// whose journal carries an open breaker and a mid-probe half-open
	// one into the re-run of the test where that breaker re-trips —
	// state the resumed lane must reproduce, not rebuild.
	for _, kill := range []int{2, 5, 8, 11} {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")

		crashed := base
		crashed.Engine.Parallelism = 1
		crashed.Durability.Checkpoint = path
		seen := 0
		crashed.Engine.OnTrace = func(tr *conprobe.TestTrace) error {
			seen++
			if seen >= kill {
				return errInjectedCrash
			}
			return nil
		}
		if _, err := conprobe.Run(context.Background(), crashed); !errors.Is(err, errInjectedCrash) {
			t.Fatalf("kill %d: crash run returned %v, want injected crash", kill, err)
		}

		resumed := base
		resumed.Engine.Parallelism = 1
		resumed.Durability.Checkpoint = path
		resumed.Durability.Resume = true
		out, err := conprobe.Run(context.Background(), resumed)
		if err != nil {
			t.Fatalf("kill %d: resume: %v", kill, err)
		}
		if got := renderOutput(t, out); got != want {
			t.Errorf("kill %d: resumed breaker campaign differs from uninterrupted run", kill)
		}
	}
}

// TestResumeAfterTornTail truncates the journal mid-line — the torn
// write of a crash during an append — and checks the resumed campaign
// still reproduces the uninterrupted output (the torn test re-runs).
func TestResumeAfterTornTail(t *testing.T) {
	base := resumeBaseOptions()
	ref, err := conprobe.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutput(t, ref)

	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	crashed := base
	crashed.Durability.Checkpoint = path
	seen := 0
	crashed.Engine.OnTrace = func(tr *conprobe.TestTrace) error {
		seen++
		if seen >= 8 {
			return errInjectedCrash
		}
		return nil
	}
	if _, err := conprobe.Run(context.Background(), crashed); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("crash run returned %v, want injected crash", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-30], 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.Durability.Checkpoint = path
	resumed.Durability.Resume = true
	out, err := conprobe.Run(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resume after torn tail: %v", err)
	}
	if got := renderOutput(t, out); got != want {
		t.Error("resumed output after torn tail differs from uninterrupted run")
	}
}

// TestResumeOfFinishedCampaignIsNoOp checks the journal of a campaign
// that ran to completion resumes into the identical result without
// running any tests.
func TestResumeOfFinishedCampaignIsNoOp(t *testing.T) {
	base := resumeBaseOptions()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	first := base
	first.Durability.Checkpoint = path
	ref, err := conprobe.Run(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutput(t, ref)

	resumed := base
	resumed.Durability.Checkpoint = path
	resumed.Durability.Resume = true
	reran := 0
	resumed.Engine.OnTrace = func(tr *conprobe.TestTrace) error { reran++; return nil }
	out, err := conprobe.Run(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if reran != 0 {
		t.Errorf("resume of a finished campaign re-ran %d tests", reran)
	}
	if got := renderOutput(t, out); got != want {
		t.Error("resume of a finished campaign changed the output")
	}
}

func TestResumeGuards(t *testing.T) {
	base := resumeBaseOptions()

	noPath := base
	noPath.Durability.Resume = true
	if _, err := conprobe.Run(context.Background(), noPath); err == nil ||
		!strings.Contains(err.Error(), "Checkpoint") {
		t.Errorf("Resume without Checkpoint: %v", err)
	}

	// A journal must be refused by a campaign differing in any one field
	// of its identity.
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	first := base
	first.Durability.Checkpoint = path
	if _, err := conprobe.Run(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field  string
		change func(*conprobe.Options)
	}{
		{"Service", func(o *conprobe.Options) { o.Workload.Service = conprobe.ServiceGooglePlus }},
		{"Seed", func(o *conprobe.Options) { o.Workload.Seed++ }},
		{"Lanes", func(o *conprobe.Options) { o.Engine.Lanes = 2 }},
		{"Test1Count", func(o *conprobe.Options) { o.Workload.Test1Count++ }},
		{"Test2Count", func(o *conprobe.Options) { o.Workload.Test2Count-- }},
		{"AlternateBlocks", func(o *conprobe.Options) { o.Workload.AlternateBlocks = 2 }},
		{"Start", func(o *conprobe.Options) { o.Workload.Start = probe.DefaultStart.Add(time.Hour) }},
		{"Rotate", func(o *conprobe.Options) { o.Workload.Rotate = 1 }},
		{"SyncSamples", func(o *conprobe.Options) { o.Workload.SyncSamples = 3 }},
	} {
		other := base
		tc.change(&other)
		other.Durability.Checkpoint = path
		other.Durability.Resume = true
		if _, err := conprobe.Run(context.Background(), other); err == nil ||
			!strings.Contains(err.Error(), "different campaign") {
			t.Errorf("journal resumed with a different %s: %v", tc.field, err)
		}
	}
}
