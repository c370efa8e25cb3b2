package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"conprobe/internal/trace"
)

func ids(ss ...string) []trace.WriteID {
	out := make([]trace.WriteID, len(ss))
	for i, s := range ss {
		out[i] = trace.WriteID(s)
	}
	return out
}

func TestContentDivergedCondition(t *testing.T) {
	tests := []struct {
		name   string
		s1, s2 []trace.WriteID
		want   bool
	}{
		{"paper example: one sees M1, other sees M2", ids("m1"), ids("m2"), true},
		{"identical", ids("m1", "m2"), ids("m1", "m2"), false},
		{"subset is not divergence", ids("m1"), ids("m1", "m2"), false},
		{"superset is not divergence", ids("m1", "m2"), ids("m1"), false},
		{"both empty", nil, nil, false},
		{"one empty", ids("m1"), nil, false},
		{"disjoint overlap", ids("m1", "m2"), ids("m2", "m3"), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ContentDiverged(tt.s1, tt.s2); got != tt.want {
				t.Fatalf("ContentDiverged(%v,%v) = %v, want %v", tt.s1, tt.s2, got, tt.want)
			}
		})
	}
}

func TestContentDivergedSymmetric(t *testing.T) {
	f := func(a, b []string) bool {
		s1 := make([]trace.WriteID, len(a))
		for i, x := range a {
			s1[i] = trace.WriteID(x)
		}
		s2 := make([]trace.WriteID, len(b))
		for i, x := range b {
			s2[i] = trace.WriteID(x)
		}
		return ContentDiverged(s1, s2) == ContentDiverged(s2, s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderDivergedCondition(t *testing.T) {
	tests := []struct {
		name   string
		s1, s2 []trace.WriteID
		want   bool
	}{
		{"paper example: (M1,M2) vs (M2,M1)", ids("m1", "m2"), ids("m2", "m1"), true},
		{"same order", ids("m1", "m2"), ids("m1", "m2"), false},
		{"interleaved extra writes same order", ids("m1", "x", "m2"), ids("m1", "m2", "y"), false},
		{"inversion with extras", ids("a", "m1", "m2"), ids("m2", "b", "m1"), true},
		{"no common writes", ids("m1"), ids("m2"), false},
		{"single common write", ids("m1", "m2"), ids("m2", "m3"), false},
		{"empty", nil, nil, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := OrderDiverged(tt.s1, tt.s2); got != tt.want {
				t.Fatalf("OrderDiverged(%v,%v) = %v, want %v", tt.s1, tt.s2, got, tt.want)
			}
		})
	}
}

func TestOrderDivergedWitness(t *testing.T) {
	v, x, y := diverged(ids("m1", "m2"), ids("m2", "m1"))
	if !v.order || x != "m1" || y != "m2" {
		t.Fatalf("witness = %v,%v,%v", x, y, v.order)
	}
}

func TestOrderDivergedSymmetricProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		// Map small ints to IDs; dedupe to keep sequences set-like, as
		// service read results are.
		mk := func(xs []uint8) []trace.WriteID {
			seen := map[uint8]bool{}
			var out []trace.WriteID
			for _, x := range xs {
				x %= 8
				if !seen[x] {
					seen[x] = true
					out = append(out, trace.WriteID(string(rune('a'+x))))
				}
			}
			return out
		}
		s1, s2 := mk(a), mk(b)
		return OrderDiverged(s1, s2) == OrderDiverged(s2, s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckContentDivergencePaperExample(t *testing.T) {
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 40, "m1"),
		rd(2, 0, 40, "m2"),
	})
	vs := CheckContentDivergence(tr)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.Agent != 1 || v.Other != 2 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestCheckContentDivergenceNoFalsePositive(t *testing.T) {
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 40, "m1"),
		rd(2, 0, 40, "m1", "m2"), // superset: not divergence
	})
	if vs := CheckContentDivergence(tr); len(vs) != 0 {
		t.Fatalf("unexpected: %+v", vs)
	}
}

func TestCheckOrderDivergencePaperExample(t *testing.T) {
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 40, "m1", "m2"),
		rd(2, 0, 40, "m2", "m1"),
	})
	vs := CheckOrderDivergence(tr)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
}

func TestCheckDivergenceAcrossNonOverlappingReads(t *testing.T) {
	// The boolean anomaly holds even when reads never overlapped in time
	// (the paper's zero-window example).
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 40, "m1"),
		rd(1, 100, 140, "m1", "m2"),
		rd(2, 200, 240, "m2"),
		rd(2, 300, 340, "m1", "m2"),
	})
	if vs := CheckContentDivergence(tr); len(vs) == 0 {
		t.Fatal("expected content divergence across non-overlapping reads")
	}
}

func TestPairsEnumeration(t *testing.T) {
	tr := newTrace(3, nil, nil)
	ps := appendPairs(nil, tr.Agents)
	want := []Pair{{1, 2}, {1, 3}, {2, 3}}
	if len(ps) != 3 {
		t.Fatalf("got %v", ps)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("Pairs = %v, want %v", ps, want)
		}
	}
}

func TestMakePairNormalizes(t *testing.T) {
	if MakePair(3, 1) != (Pair{1, 3}) {
		t.Fatal("MakePair did not normalize")
	}
}

// windowTrace builds the canonical window scenario: both agents read
// continuously; divergence appears and heals.
func windowTrace() *trace.TestTrace {
	return newTrace(2, nil, []trace.Read{
		// t=0: both agree (empty).
		rd(1, 0, 0),
		rd(2, 0, 0),
		// t=100: agent1 sees m1, agent2 sees m2 -> diverged.
		rd(1, 100, 100, "m1"),
		rd(2, 100, 100, "m2"),
		// t=400: agent1 sees both; agent2 still only m2 -> agent2's view
		// is a subset: no longer content-diverged.
		rd(1, 400, 400, "m1", "m2"),
		// t=700: agent2 catches up fully.
		rd(2, 700, 700, "m1", "m2"),
	})
}

func TestContentDivergenceWindowMeasuresInterval(t *testing.T) {
	tr := windowTrace()
	ws := ContentDivergenceWindows(tr)
	if len(ws) != 1 {
		t.Fatalf("got %d results, want 1", len(ws))
	}
	w := ws[0]
	// Diverged from t=100 (second read pair) until t=400.
	if w.Largest != 300*time.Millisecond {
		t.Fatalf("Largest = %v, want 300ms", w.Largest)
	}
	if !w.Converged {
		t.Fatal("should have converged")
	}
	if w.Count != 1 {
		t.Fatalf("Count = %d, want 1", w.Count)
	}
}

func TestContentDivergenceWindowZeroWhenNoOverlap(t *testing.T) {
	// The paper's example: divergence happened but the timeline condition
	// never held, so the window is zero.
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 0, "m1"),
		rd(1, 100, 100, "m1", "m2"),
		rd(2, 200, 200, "m2"),
		rd(2, 300, 300, "m1", "m2"),
	})
	ws := ContentDivergenceWindows(tr)
	if len(ws) != 1 {
		t.Fatal("want one pair")
	}
	// At t=200 agent1's latest is (m1,m2), agent2's is (m2): subset, not
	// diverged. Window must be zero although the boolean anomaly holds.
	if ws[0].Largest != 0 || ws[0].Count != 0 {
		t.Fatalf("window = %+v, want zero", ws[0])
	}
	if len(CheckContentDivergence(tr)) == 0 {
		t.Fatal("boolean anomaly should still hold")
	}
}

func TestContentDivergenceWindowNotConverged(t *testing.T) {
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 0, "m1"),
		rd(2, 0, 0, "m2"),
		rd(1, 500, 500, "m1"),
		rd(2, 500, 500, "m2"),
	})
	ws := ContentDivergenceWindows(tr)
	if ws[0].Converged {
		t.Fatal("should not have converged")
	}
	if ws[0].Largest != 500*time.Millisecond {
		t.Fatalf("Largest = %v, want 500ms (measured to last event)", ws[0].Largest)
	}
}

func TestContentDivergenceWindowAppliesClockDeltas(t *testing.T) {
	tr := windowTrace()
	// Skew agent 2's clock: its local stamps are 50ms behind reference, so
	// delta=+50ms shifts its events later... and changes interval lengths.
	tr.Deltas = map[trace.AgentID]time.Duration{2: 50 * time.Millisecond}
	ws := ContentDivergenceWindows(tr)
	// Divergence starts at corrected t=150 (agent2's m2-read) and ends at
	// t=400 (agent1 full view): 250ms.
	if ws[0].Largest != 250*time.Millisecond {
		t.Fatalf("Largest = %v, want 250ms after delta correction", ws[0].Largest)
	}
}

func TestOrderDivergenceWindow(t *testing.T) {
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 0, "m1", "m2"),
		rd(2, 0, 0, "m2", "m1"), // diverged order from t=0
		rd(2, 800, 800, "m1", "m2"),
	})
	ws := OrderDivergenceWindows(tr)
	if len(ws) != 1 {
		t.Fatal("want one pair")
	}
	if ws[0].Largest != 800*time.Millisecond {
		t.Fatalf("Largest = %v, want 800ms", ws[0].Largest)
	}
	if !ws[0].Converged {
		t.Fatal("should converge at final read")
	}
}

func TestOrderDivergenceWindowMultipleIntervals(t *testing.T) {
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 0, "m1", "m2"),
		rd(2, 0, 0, "m2", "m1"),     // diverge #1 at 0
		rd(2, 100, 100, "m1", "m2"), // heal at 100
		rd(2, 300, 300, "m2", "m1"), // diverge #2 at 300
		rd(2, 350, 350, "m1", "m2"), // heal at 350
	})
	ws := OrderDivergenceWindows(tr)
	w := ws[0]
	if w.Count != 2 {
		t.Fatalf("Count = %d, want 2", w.Count)
	}
	if w.Largest != 100*time.Millisecond {
		t.Fatalf("Largest = %v, want 100ms", w.Largest)
	}
	if w.Total != 150*time.Millisecond {
		t.Fatalf("Total = %v, want 150ms", w.Total)
	}
}

func TestWindowsEmptyTraceSafe(t *testing.T) {
	tr := newTrace(3, nil, nil)
	ws := ContentDivergenceWindows(tr)
	if len(ws) != 3 {
		t.Fatalf("want 3 pair results, got %d", len(ws))
	}
	for _, w := range ws {
		if w.Largest != 0 || !w.Converged {
			t.Fatalf("empty trace window = %+v", w)
		}
	}
}

func TestWindowLargestNeverNegativeProperty(t *testing.T) {
	f := func(obs [][]uint8, times []int16) bool {
		// Build arbitrary two-agent read streams.
		var reads []trace.Read
		for i, o := range obs {
			if i >= len(times) {
				break
			}
			ms := int(times[i])
			if ms < 0 {
				ms = -ms
			}
			var seq []string
			seen := map[uint8]bool{}
			for _, x := range o {
				x %= 6
				if !seen[x] {
					seen[x] = true
					seq = append(seq, string(rune('a'+x)))
				}
			}
			reads = append(reads, rd(1+i%2, ms, ms, seq...))
		}
		tr := newTrace(2, nil, reads)
		for _, w := range ContentDivergenceWindows(tr) {
			if w.Largest < 0 || w.Total < 0 || w.Largest > w.Total {
				return false
			}
		}
		for _, w := range OrderDivergenceWindows(tr) {
			if w.Largest < 0 || w.Total < 0 || w.Largest > w.Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowsClockDeltaCanReorderAgentsEvents(t *testing.T) {
	// Two agents' reads interleave differently once deltas are applied:
	// on raw local stamps agent 2's diverging read appears *after*
	// agent 1 converged (zero window); corrected, they overlap.
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 0, "m1"),
		rd(1, 500, 500, "m1", "m2"), // agent1 converges at local 500
		rd(2, 600, 600, "m2"),       // diverging read, local 600
		rd(2, 900, 900, "m1", "m2"),
	})
	// Without correction: when agent2's (m2)-read lands, agent1's state
	// is already (m1,m2): subset, no window.
	if w := ContentDivergenceWindows(tr)[0]; w.Largest != 0 {
		t.Fatalf("uncorrected window = %v, want 0", w.Largest)
	}
	// Agent 2's clock is 550ms fast: corrected, its diverging read
	// happened at reference 50ms — while agent1 still saw only m1 — and
	// its convergence at 350ms. Window = from agent2's read (50ms) until
	// agent2 converges (350ms): 300ms.
	tr.Deltas = map[trace.AgentID]time.Duration{2: -550 * time.Millisecond}
	w := ContentDivergenceWindows(tr)[0]
	if w.Largest != 300*time.Millisecond {
		t.Fatalf("corrected window = %v, want 300ms", w.Largest)
	}
}

func TestCheckDivergenceReportsEachReadOnce(t *testing.T) {
	// Agent 1's read diverges from three of agent 2's four reads; it is
	// reported once, against the earliest of them. This is the one place
	// CheckTest's output differs from the pair scan it replaced, which
	// reported the read once per diverging counterpart.
	tr := newTrace(2, nil, []trace.Read{
		rd(1, 0, 40, "m1", "m2", "m3"),
		rd(2, 0, 40, "m1", "m2", "m3"),
		rd(2, 100, 140, "m3", "m4", "m1"),
		rd(2, 200, 240, "m2", "m4", "m1"),
		rd(2, 300, 340, "m5"),
	})
	if vs := CheckContentDivergence(tr); len(vs) != 1 || vs[0].ReadIndex != 0 {
		t.Fatalf("content: got %+v, want one violation for read 0", vs)
	}
	vs := CheckOrderDivergence(tr)
	if len(vs) != 1 || vs[0].Write != "m1" || vs[0].Write2 != "m3" {
		t.Fatalf("order: got %+v, want one violation witnessed by m1, m3", vs)
	}
	if c, o := len(ReferenceCheck(tr, ContentDivergence)), len(ReferenceCheck(tr, OrderDivergence)); c != 3 || o != 2 {
		t.Fatalf("the original pair scan reports %d content and %d order violations here, want 3 and 2", c, o)
	}
}

// A trace file may declare any agent count; CheckTest goes by the agents
// that read, so the count costs nothing.
func TestCheckTestToleratesAnyDeclaredAgentCount(t *testing.T) {
	tr := newTrace(2, nil, []trace.Read{rd(1, 0, 40, "m1", "m2"), rd(2, 0, 40, "m2", "m1")})
	want := CheckTest(tr)
	if len(want) != 1 || want[0].Anomaly != OrderDivergence {
		t.Fatalf("fixture: got %v, want one order divergence", want)
	}
	tr.Agents = math.MaxInt
	if got := CheckTest(tr); !slices.Equal(got, want) {
		t.Fatalf("with %d agents declared: got %v, want %v", tr.Agents, got, want)
	}
}

// TestDivergenceDecidesEachPairOfTimelinesOnce pins the work, not the
// output: on a Test 2 whose agents show k distinct consecutive timelines
// over 45 reads each, a divergence check decides at most k_A·k_B pairs of
// sequences per pair of agents and a window scan at most k_A+k_B, where
// deciding every pair of reads took up to 45·45 and 90.
func TestDivergenceDecidesEachPairOfTimelinesOnce(t *testing.T) {
	full := test2Fixture(45)
	timelines := func(ag trace.AgentID) int {
		k := 0
		var last []trace.WriteID
		for _, r := range full.Reads { // in invocation order
			if r.Agent == ag && (k == 0 || !slices.Equal(r.Observed, last)) {
				k, last = k+1, r.Observed
			}
		}
		return k
	}
	for _, p := range []Pair{{1, 2}, {1, 3}, {2, 3}} {
		tr := *full
		tr.Reads = slices.DeleteFunc(slices.Clone(full.Reads), func(r trace.Read) bool {
			return r.Agent != p.A && r.Agent != p.B
		})
		kA, kB := timelines(p.A), timelines(p.B)
		if kA*kB >= 45 {
			t.Fatalf("pair %v shows %d × %d timelines, too many to tell", p, kA, kB)
		}
		ix := NewIndex(&tr)
		for _, a := range DivergenceAnomalies() {
			ix.k.evals = 0
			ix.Check(a)
			if ix.k.evals > kA*kB {
				t.Errorf("pair %v: Check(%v) decided %d pairs of sequences, want at most %d × %d", p, a, ix.k.evals, kA, kB)
			}
			ix.k.evals = 0
			ix.Windows(a)
			if ix.k.evals > kA+kB {
				t.Errorf("pair %v: Windows(%v) decided %d pairs of sequences, want at most %d + %d", p, a, ix.k.evals, kA, kB)
			}
		}
	}
}
