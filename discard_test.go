package conprobe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"

	"conprobe"
	"conprobe/internal/chaos"
	"conprobe/internal/faultinject"
	"conprobe/internal/resilience"
	"conprobe/internal/simnet"
)

// encodedTrace is one trace as a consumer saw it: its ID, the properties
// the coverage checks look at, and its encoding.
type encodedTrace struct {
	id                   int
	faulty, chaos, noOps bool
	json                 []byte
}

func encodeTrace(t *testing.T, tr *conprobe.TestTrace) encodedTrace {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return encodedTrace{
		id:     tr.TestID,
		faulty: len(tr.FailedOps)+len(tr.RetriedOps) > 0,
		chaos:  len(tr.ChaosActive) > 0,
		noOps:  tr.Writes == nil || tr.Reads == nil,
		json:   b,
	}
}

// discardedAndKept runs opts twice — once discarding traces and encoding
// each inside OnTrace, the only moment a discarded trace is valid, and
// once keeping them — and returns both encodings sorted by TestID, with
// the two rendered reports.
func discardedAndKept(t *testing.T, opts conprobe.Options) (discarded, kept []encodedTrace, discardedReport, keptReport []byte) {
	t.Helper()
	report := func(res *conprobe.RunResult) []byte {
		var b bytes.Buffer
		if err := conprobe.WriteReport(&b, res.Report); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	d := opts
	d.Engine.DiscardTraces = true
	d.Engine.OnTrace = func(tr *conprobe.TestTrace) error {
		discarded = append(discarded, encodeTrace(t, tr))
		return nil
	}
	res, err := conprobe.Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 0 {
		t.Fatalf("DiscardTraces retained %d traces", len(res.Traces))
	}
	discardedReport = report(res)
	sort.Slice(discarded, func(i, j int) bool { return discarded[i].id < discarded[j].id })

	if res, err = conprobe.Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Traces {
		kept = append(kept, encodeTrace(t, tr))
	}
	return discarded, kept, discardedReport, report(res)
}

// sameTraces fails unless the two runs produced the same traces, byte
// for byte.
func sameTraces(t *testing.T, name string, discarded, kept []encodedTrace, discardedReport, keptReport []byte) {
	t.Helper()
	if len(discarded) != len(kept) {
		t.Fatalf("%s: %d traces discarded, %d kept", name, len(discarded), len(kept))
	}
	for i := range kept {
		if !bytes.Equal(discarded[i].json, kept[i].json) {
			t.Fatalf("%s: test %d encodes differently when its lane refills traces:\ndiscarded %s\n     kept %s",
				name, kept[i].id, discarded[i].json, kept[i].json)
		}
	}
	if !bytes.Equal(discardedReport, keptReport) {
		t.Fatalf("%s: the report differs when traces are discarded", name)
	}
}

// followedBy reports whether some trace with property a is followed, in
// its own lane, by one with property b. The schedule is dealt to lanes
// round-robin in TestID order, so a lane's next test is lanes IDs on.
func followedBy(traces []encodedTrace, lanes int, a, b func(encodedTrace) bool) bool {
	byID := make(map[int]encodedTrace, len(traces))
	for _, tr := range traces {
		byID[tr.id] = tr
	}
	for _, tr := range traces {
		if next, ok := byID[tr.id+lanes]; ok && a(tr) && b(next) {
			return true
		}
	}
	return false
}

// TestDiscardedTracesMatchKeptTraces is the oracle for trace reuse: a
// discarding lane refills one trace per test, and what its sinks see
// must be what a fresh trace per test would have held. Nothing — a
// clock-sync map entry, a fault count, a chaos label, an observed ID, a
// nil slice turned empty — may carry over from one test into the next.
// The fault and chaos runs are shaped so that a trace carrying counts,
// labels or no operations at all is followed in its lane by one that
// does not (and the other way round); the test checks that they are.
func TestDiscardedTracesMatchKeptTraces(t *testing.T) {
	for _, name := range conprobe.ProfileNames() {
		for _, par := range []int{1, 8} {
			opts := conprobe.Options{
				Workload: conprobe.Workload{Service: name, Test1Count: 12, Test2Count: 12, Seed: 3},
				Engine:   conprobe.Engine{Parallelism: par},
			}
			d, k, dr, kr := discardedAndKept(t, opts)
			sameTraces(t, fmt.Sprintf("%s at parallelism %d", name, par), d, k, dr, kr)
		}
	}

	t.Run("faults", func(t *testing.T) {
		// One lane of blogger Test 2s, ten minutes apart: the outage
		// swallows the second test whole (no writes, no reads), and the
		// rare background failures leave most tests clean.
		const lanes = 1
		opts := conprobe.Options{
			Workload: conprobe.Workload{Service: conprobe.ServiceBlogger, Test2Count: 8, Seed: 3},
			Engine:   conprobe.Engine{Lanes: lanes, Parallelism: 1},
			Faults: &faultinject.Config{
				WriteFailRate: 0.01,
				ReadFailRate:  0.01,
				Outages:       []faultinject.Outage{{Start: 5 * time.Minute, End: 15 * time.Minute}},
			},
			Resilience: conprobe.Resilience{Retry: &resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond}},
		}
		d, k, dr, kr := discardedAndKept(t, opts)
		sameTraces(t, "faults", d, k, dr, kr)
		faulty := func(tr encodedTrace) bool { return tr.faulty }
		clean := func(tr encodedTrace) bool { return !tr.faulty }
		noOps := func(tr encodedTrace) bool { return tr.noOps }
		someOps := func(tr encodedTrace) bool { return !tr.noOps }
		if !followedBy(d, lanes, faulty, clean) || !followedBy(d, lanes, clean, faulty) {
			t.Fatal("no trace with failed or retried operations next to a clean one in its lane; the run does not cover reuse")
		}
		if !followedBy(d, lanes, someOps, noOps) || !followedBy(d, lanes, noOps, someOps) {
			t.Fatal("no trace with nil writes or reads next to one with both in its lane; the run does not cover reuse")
		}
	})

	t.Run("chaos", func(t *testing.T) {
		// Two lanes of fbgroup Test 2s about six minutes apart; the
		// partition covers each lane's second and third tests.
		const lanes = 2
		opts := conprobe.Options{
			Workload: conprobe.Workload{Service: conprobe.ServiceFBGroup, Test2Count: 10, Seed: 3},
			Engine:   conprobe.Engine{Lanes: lanes, Parallelism: 2},
			Chaos: &conprobe.ChaosSchedule{Events: []chaos.Event{{
				Kind: chaos.KindPartition, A: simnet.DCEast, B: simnet.DCAsia,
				At: 4 * time.Minute, Until: 14 * time.Minute,
			}}},
		}
		d, k, dr, kr := discardedAndKept(t, opts)
		sameTraces(t, "chaos", d, k, dr, kr)
		labelled := func(tr encodedTrace) bool { return tr.chaos }
		unlabelled := func(tr encodedTrace) bool { return !tr.chaos }
		if !followedBy(d, lanes, labelled, unlabelled) || !followedBy(d, lanes, unlabelled, labelled) {
			t.Fatal("no chaos-labelled trace next to an unlabelled one in its lane; the run does not cover reuse")
		}
	})
}
