package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"conprobe/internal/probe"
	"conprobe/internal/trace"
)

// randomTrace draws a trace that is deliberately not well-formed: reads
// from agents outside 1..Agents, equal timestamps, repeated IDs inside one
// read, writes sharing a Seq, triggers naming writes nobody issued.
func randomTrace(r *rand.Rand) *trace.TestTrace {
	agents := 1 + r.Intn(4)
	tr := &trace.TestTrace{
		TestID: 1, Kind: trace.Test2, Service: "random", Started: base, Agents: agents,
		Deltas: map[trace.AgentID]time.Duration{},
	}
	for ag := 1; ag <= agents; ag++ {
		if r.Intn(2) == 0 {
			tr.Deltas[trace.AgentID(ag)] = time.Duration(r.Intn(400)-200) * time.Millisecond
		}
	}
	id := func() trace.WriteID { return trace.WriteID(fmt.Sprintf("m%d", r.Intn(6))) }
	anyAgent := func() trace.AgentID { return trace.AgentID(r.Intn(agents + 2)) } // 0 and agents+1 are strays
	for n := r.Intn(7); n > 0; n-- {
		inv := r.Intn(10) * 50
		w := trace.Write{
			ID: id(), Agent: anyAgent(), Seq: 1 + r.Intn(3),
			Invoked: at(inv), Returned: at(inv + r.Intn(3)*50),
		}
		if r.Intn(3) == 0 {
			w.Trigger = id()
		}
		tr.Writes = append(tr.Writes, w)
	}
	for n := r.Intn(30); n > 0; n-- {
		inv := r.Intn(12) * 50
		rd := trace.Read{Agent: anyAgent(), Invoked: at(inv), Returned: at(inv + r.Intn(3)*50)}
		for k := r.Intn(6); k > 0; k-- {
			rd.Observed = append(rd.Observed, id())
		}
		tr.Reads = append(tr.Reads, rd)
	}
	return tr
}

// stickyTrace draws a trace whose agents mostly re-read what they read
// last, as the paper's agents do while nothing changes: a read repeats
// its agent's previous sequence with probability 3/4, and otherwise
// returns a fresh one or the one before last (A-B-A). Invocations tie,
// reads overlap so that completion order is not invocation order, clock
// deltas reorder the agents against each other, and strays read too.
func stickyTrace(r *rand.Rand) *trace.TestTrace {
	agents := 2 + r.Intn(3)
	tr := &trace.TestTrace{
		TestID: 1, Kind: trace.Test2, Service: "sticky", Started: base, Agents: agents,
		Deltas: map[trace.AgentID]time.Duration{},
	}
	id := func() trace.WriteID { return trace.WriteID(fmt.Sprintf("m%d", r.Intn(5))) }
	for ag := 1; ag <= agents; ag++ {
		tr.Deltas[trace.AgentID(ag)] = time.Duration(r.Intn(5)-2) * 100 * time.Millisecond
		tr.Writes = append(tr.Writes, trace.Write{ID: id(), Agent: trace.AgentID(ag), Seq: 1, Invoked: at(0), Returned: at(40)})
	}
	type history struct {
		next       int             // the next invocation, ms
		last, prev []trace.WriteID // the latest sequence and the one before
	}
	hist := make([]history, agents+2) // 0 and agents+1 are strays
	for n := r.Intn(90); n > 0; n-- {
		ag := r.Intn(agents + 2)
		h := &hist[ag]
		switch r.Intn(8) {
		case 0: // a fresh sequence
			var obs []trace.WriteID
			for k := r.Intn(5); k > 0; k-- {
				obs = append(obs, id())
			}
			h.last, h.prev = obs, h.last
		case 1: // back to the one before last
			h.last, h.prev = h.prev, h.last
		}
		tr.Reads = append(tr.Reads, trace.Read{
			Agent: trace.AgentID(ag), Invoked: at(h.next), Returned: at(h.next + r.Intn(4)*50),
			Observed: slices.Clone(h.last),
		})
		h.next += r.Intn(3) * 50
	}
	r.Shuffle(len(tr.Reads), func(i, j int) { tr.Reads[i], tr.Reads[j] = tr.Reads[j], tr.Reads[i] })
	return tr
}

// same is slices.Equal that also tells nil from empty, as a DeepEqual or
// JSON consumer of the checkers' results would.
func same[T comparable](a, b []T) bool {
	return slices.Equal(a, b) && (a == nil) == (b == nil)
}

func requireMatchesReference(t *testing.T, tr *trace.TestTrace) {
	t.Helper()
	if got, want := CheckTest(tr), expectedCheckTest(tr); !same(got, want) {
		t.Fatalf("CheckTest differs from the reference\n got %v\nwant %v\ntrace %+v", got, want, tr)
	}
	requireIndexMatchesReference(t, NewIndex(tr), tr, false)
	if got, want := ContentDivergenceWindows(tr), ReferenceWindows(tr, ContentDivergence); !same(got, want) {
		t.Fatalf("ContentDivergenceWindows differs from the reference")
	}
	if got, want := OrderDivergenceWindows(tr), ReferenceWindows(tr, OrderDivergence); !same(got, want) {
		t.Fatalf("OrderDivergenceWindows differs from the reference")
	}
}

// requireIndexMatchesReference asks an index prepared for tr for every
// anomaly and both window scans, the scans first if windowsFirst, and
// compares only once it has them all: a result written over by a later
// call, which an index that keeps its result buffers could do, shows here.
func requireIndexMatchesReference(t *testing.T, ix *Index, tr *trace.TestTrace, windowsFirst bool) {
	t.Helper()
	checks := make(map[Anomaly][]Violation)
	windows := make(map[Anomaly][]WindowResult)
	scan := func() {
		for _, a := range DivergenceAnomalies() {
			windows[a] = ix.Windows(a)
		}
	}
	if windowsFirst {
		scan()
	}
	for _, a := range AllAnomalies() {
		checks[a] = ix.Check(a)
	}
	if !windowsFirst {
		scan()
	}
	for _, a := range AllAnomalies() {
		if got, want := checks[a], expectedCheck(tr, a); !same(got, want) {
			t.Fatalf("%v differs from the reference\n got %v\nwant %v\ntrace %+v", a, got, want, tr)
		}
	}
	for _, a := range DivergenceAnomalies() {
		if got, want := windows[a], ReferenceWindows(tr, a); !same(got, want) {
			t.Fatalf("%v windows differ from the reference\n got %+v\nwant %+v\ntrace %+v", a, got, want, tr)
		}
	}
}

// googlePlusTest2 is a real Test 2 of the googleplus profile: three agents,
// 45 reads each, the largest trace a campaign hands an index.
func googlePlusTest2(t testing.TB) *trace.TestTrace {
	t.Helper()
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    "googleplus",
			Test2Count: 1,
			Seed:       3,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traces[0]
	if len(tr.Reads) != 3*45 {
		t.Fatalf("googleplus Test 2 has %d reads, want 3 x 45", len(tr.Reads))
	}
	return tr
}

// TestReusedIndexMatchesReference: one Index, Reset from trace to trace,
// must answer every question as a new one does. The sequence is the
// malformed-trace generator's, shuffled in with runs of the largest real
// trace followed by an empty one and a one-read one, so that whatever a
// large trace leaves in the buffers — interned IDs, kernel stamps, reads,
// events, results — meets the traces least able to overwrite it.
func TestReusedIndexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	big := googlePlusTest2(t)
	empty := &trace.TestTrace{TestID: 2, Kind: trace.Test2, Agents: 3}
	oneRead := newTrace(3, nil, []trace.Read{rd(2, 10, 20, "m1")})
	var seq []*trace.TestTrace
	for n := 0; n < 600; n++ {
		seq = append(seq, randomTrace(r))
	}
	seq = append(seq, multiAnomalyTrace(), test2Fixture(45), windowTrace())
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for _, at := range []int{0, len(seq) / 3, len(seq)} {
		seq = slices.Insert(seq, at, big, empty, oneRead)
	}

	var ix Index
	for n, tr := range seq {
		requireIndexMatchesReference(t, ix.Reset(tr), tr, n%2 == 1)
		requireIndexMatchesReference(t, NewIndex(tr), tr, n%2 == 1)
		if kept := len(ix.ids.list) + len(ix.ids.byID) + len(ix.reads) + len(ix.flat) + len(ix.writes) + len(ix.deps) + len(ix.agents); tr == empty && kept != 0 {
			t.Fatalf("an index reset to an empty trace still holds %d entries of the trace before", kept)
		}
	}
}

func TestIndexMatchesReferenceOnRandomTraces(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for n := 0; n < 3000; n++ {
		requireMatchesReference(t, randomTrace(r))
	}
}

// TestIndexMatchesReferenceOnStickyTraces holds the runs of repeated
// timelines, which the divergence passes decide once, to the oracle,
// which decides every read: through fresh indexes and one kept across
// traces, windows before and after checks.
func TestIndexMatchesReferenceOnStickyTraces(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	var ix Index
	for n := 0; n < 500; n++ {
		tr := stickyTrace(r)
		requireMatchesReference(t, tr)
		requireIndexMatchesReference(t, NewIndex(tr), tr, true)
		requireIndexMatchesReference(t, ix.Reset(tr), tr, n%2 == 0)
	}
}

func TestIndexMatchesReferenceOnFixtures(t *testing.T) {
	requireMatchesReference(t, multiAnomalyTrace())
	requireMatchesReference(t, test2Fixture(45))
	requireMatchesReference(t, windowTrace())
	for _, sc := range scenarios() {
		requireMatchesReference(t, newTrace(sc.agents, sc.writes, sc.reads))
	}
}

// requirePredicatesMatchReference compares both predicates, witness
// included, with the map-based originals.
func requirePredicatesMatchReference(t *testing.T, s1, s2 []trace.WriteID) {
	t.Helper()
	v, x, y := diverged(s1, s2)
	if want := refContentDiverged(s1, s2); v.content != want || ContentDiverged(s1, s2) != want {
		t.Fatalf("content divergence of %v, %v = %v, reference %v", s1, s2, v.content, want)
	}
	rx, ry, rok := refOrderDiverged(s1, s2)
	if v.order != rok || x != rx || y != ry || OrderDiverged(s1, s2) != rok {
		t.Fatalf("order divergence of %v, %v = %q, %q, %v; reference %q, %q, %v", s1, s2, x, y, v.order, rx, ry, rok)
	}
}

func TestPredicatesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	seq := func(maxLen, alphabet int) []trace.WriteID {
		out := make([]trace.WriteID, r.Intn(maxLen+1))
		for i := range out {
			out[i] = trace.WriteID(fmt.Sprintf("w%d", r.Intn(alphabet)))
		}
		return out
	}
	for n := 0; n < 5000; n++ {
		requirePredicatesMatchReference(t, seq(8, 5), seq(8, 5)) // short, many repeats
	}
	for n := 0; n < 300; n++ {
		requirePredicatesMatchReference(t, seq(200, 120), seq(200, 120)) // replica-log sized
	}
	// A replica log against a reordered copy of itself.
	log := make([]trace.WriteID, 96)
	for i := range log {
		log[i] = trace.WriteID(fmt.Sprintf("w%d", i))
	}
	swapped := slices.Clone(log)
	swapped[40], swapped[90] = swapped[90], swapped[40]
	requirePredicatesMatchReference(t, log, swapped)
	requirePredicatesMatchReference(t, log, log[:50])
}

// multiAnomalyTrace exhibits all six anomalies, several of them through
// more than one agent, writer or write — enough that ranging over a map
// anywhere in a checker would reorder the result between runs.
func multiAnomalyTrace() *trace.TestTrace {
	dep := func(w trace.Write, trigger string) trace.Write {
		w.Trigger = trace.WriteID(trigger)
		return w
	}
	return newTrace(3,
		[]trace.Write{
			wr("m1", 1, 1, 0, 10), wr("m2", 1, 2, 20, 30),
			dep(wr("m3", 2, 1, 40, 50), "m2"), wr("m4", 2, 2, 60, 70),
			dep(wr("m5", 3, 1, 80, 90), "m4"), wr("m6", 3, 2, 100, 110),
		},
		[]trace.Read{
			rd(1, 200, 210, "m1", "m2", "m3", "m4", "m5", "m6"),
			rd(2, 200, 210, "m6", "m5", "m4", "m3", "m2", "m1"),
			rd(3, 200, 210, "m2", "m4", "m6"),
			rd(1, 300, 310, "m3", "m6"),
			rd(2, 300, 310, "m5"),
			rd(3, 300, 310, "m6", "m1", "m3"),
			rd(1, 400, 410),
			rd(2, 400, 410, "m1", "m2", "m3", "m4", "m5", "m6"),
			rd(3, 400, 410, "m1", "m2", "m3", "m4", "m5", "m6"),
		})
}

func TestCheckTestOrderIsDeterministic(t *testing.T) {
	tr := multiAnomalyTrace()
	want := CheckTest(tr)
	for _, a := range AllAnomalies() {
		if countAnomaly(want, a) < 2 {
			t.Fatalf("fixture shows %d %v violations, want several", countAnomaly(want, a), a)
		}
	}
	for n := 0; n < 50; n++ {
		if got := CheckTest(tr); !slices.Equal(got, want) {
			t.Fatalf("run %d returned the violations in another order\n got %v\nwant %v", n, got, want)
		}
	}
}

// replayStream feeds a trace's operations to a fresh Stream: writes as
// they complete, then reads in the order the trace lists them.
func replayStream(tr *trace.TestTrace) []Violation {
	s := NewStream()
	for _, w := range tr.Writes {
		s.ObserveWrite(w)
	}
	var out []Violation
	for _, r := range tr.Reads {
		out = append(out, s.ObserveRead(r)...)
	}
	return out
}

func TestStreamOrderIsDeterministic(t *testing.T) {
	tr := multiAnomalyTrace()
	want := replayStream(tr)
	for _, a := range AllAnomalies() {
		if countAnomaly(want, a) == 0 {
			t.Fatalf("replay shows no %v violation", a)
		}
	}
	for n := 0; n < 50; n++ {
		if got := replayStream(tr); !slices.Equal(got, want) {
			t.Fatalf("replay %d returned the violations in another order\n got %v\nwant %v", n, got, want)
		}
	}
}

func TestStreamKeepsWritesInIssueOrder(t *testing.T) {
	s := NewStream()
	// Completion order differs from issue order; equal Seqs keep arrival order.
	for _, w := range []trace.Write{
		wr("c", 1, 3, 0, 10), wr("a", 1, 1, 0, 10), wr("b1", 1, 2, 0, 10), wr("b2", 1, 2, 0, 10),
	} {
		s.ObserveWrite(w)
	}
	var got []trace.WriteID
	for _, w := range s.agent(1).writes {
		got = append(got, w.ID)
	}
	if want := ids("a", "b1", "b2", "c"); !slices.Equal(got, want) {
		t.Fatalf("writes held as %v, want %v", got, want)
	}
}

// test2Fixture is a paper-shaped Test 2: three agents write once at the
// same instant and then read n times each, their views passing through
// content divergence, order divergence and convergence.
func test2Fixture(n int) *trace.TestTrace {
	views := [][3][]string{
		{{"m1"}, {"m2"}, {"m3"}},
		{{"m1", "m2"}, {"m2", "m1"}, {"m3"}},
		{{"m1", "m2", "m3"}, {"m2", "m1", "m3"}, {"m1", "m2", "m3"}},
		{{"m1", "m2", "m3"}, {"m1", "m2", "m3"}, {"m1", "m2", "m3"}},
	}
	tr := newTrace(3, []trace.Write{
		wr("m1", 1, 1, 0, 40), wr("m2", 2, 1, 0, 40), wr("m3", 3, 1, 0, 40),
	}, nil)
	tr.Kind = trace.Test2
	for k := 0; k < n; k++ {
		phase := min(k/4, len(views)-1)
		for ag := 1; ag <= 3; ag++ {
			tr.Reads = append(tr.Reads, rd(ag, 100+300*k+ag, 140+300*k+ag, views[phase][ag-1]...))
		}
	}
	return tr
}

func TestDivergencePredicatesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s1 := ids("m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8")
	s2 := ids("m8", "m2", "m3", "m9", "m5", "m6", "m7", "m1")
	if !ContentDiverged(s1, s2) || !OrderDiverged(s1, s2) {
		t.Fatal("fixture must diverge both ways")
	}
	if n := testing.AllocsPerRun(200, func() { ContentDiverged(s1, s2) }); n != 0 {
		t.Errorf("ContentDiverged allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(200, func() { OrderDiverged(s1, s2) }); n != 0 {
		t.Errorf("OrderDiverged allocates %v times per call", n)
	}
}

// Tripling the reads of a Test 2 must not triple what CheckTest allocates:
// the index is a fixed number of slices whatever their length, and only
// the returned violations grow.
func TestCheckTestAllocationsDoNotGrowWithReads(t *testing.T) {
	short, long := test2Fixture(15), test2Fixture(45)
	if len(CheckTest(long)) <= len(CheckTest(short)) {
		t.Fatal("the long fixture must show more violations than the short one")
	}
	allocs := func(tr *trace.TestTrace) float64 {
		return testing.AllocsPerRun(50, func() { CheckTest(tr) })
	}
	const slack = 8 // the violation slice doubling a few more times
	if s, l := allocs(short), allocs(long); l > s+slack {
		t.Errorf("CheckTest allocates %v times on 45 reads per agent, %v on 15: more than %d apart", l, s, slack)
	}
}
