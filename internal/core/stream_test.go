package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"conprobe/internal/trace"
)

func TestStreamRYW(t *testing.T) {
	s := NewStream()
	s.ObserveWrite(wr("m1", 1, 1, 0, 50))
	vs := s.ObserveRead(rd(1, 100, 140)) // empty read after own write
	if countAnomaly(vs, ReadYourWrites) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	// Other agents are not obligated.
	vs = s.ObserveRead(rd(2, 100, 140))
	if countAnomaly(vs, ReadYourWrites) != 0 {
		t.Fatalf("agent2 RYW: %+v", vs)
	}
	// In-flight writes don't count.
	s.ObserveWrite(wr("m2", 1, 2, 200, 900))
	vs = s.ObserveRead(rd(1, 300, 340, "m1"))
	if countAnomaly(vs, ReadYourWrites) != 0 {
		t.Fatalf("in-flight counted: %+v", vs)
	}
}

func TestStreamMW(t *testing.T) {
	s := NewStream()
	s.ObserveWrite(wr("m1", 1, 1, 0, 50))
	s.ObserveWrite(wr("m2", 1, 2, 60, 110))
	vs := s.ObserveRead(rd(2, 200, 240, "m2"))
	if countAnomaly(vs, MonotonicWrites) != 1 {
		t.Fatalf("missing-prefix MW: %+v", vs)
	}
	vs = s.ObserveRead(rd(2, 300, 340, "m2", "m1"))
	if countAnomaly(vs, MonotonicWrites) != 1 {
		t.Fatalf("reorder MW: %+v", vs)
	}
	vs = s.ObserveRead(rd(2, 400, 440, "m1", "m2"))
	if countAnomaly(vs, MonotonicWrites) != 0 {
		t.Fatalf("clean read flagged: %+v", vs)
	}
}

func TestStreamMR(t *testing.T) {
	s := NewStream()
	if vs := s.ObserveRead(rd(1, 0, 40, "m1")); len(vs) != 0 {
		t.Fatalf("first read flagged: %+v", vs)
	}
	vs := s.ObserveRead(rd(1, 100, 140))
	if countAnomaly(vs, MonotonicReads) != 1 {
		t.Fatalf("disappearance missed: %+v", vs)
	}
	// Another agent's high water is separate.
	if vs := s.ObserveRead(rd(2, 100, 140)); countAnomaly(vs, MonotonicReads) != 0 {
		t.Fatalf("cross-agent MR: %+v", vs)
	}
}

func TestStreamWFR(t *testing.T) {
	s := NewStream()
	w3 := wr("m3", 2, 1, 300, 350)
	w3.Trigger = "m2"
	s.ObserveWrite(wr("m2", 1, 2, 60, 110))
	s.ObserveWrite(w3)
	vs := s.ObserveRead(rd(3, 400, 440, "m3"))
	if countAnomaly(vs, WritesFollowsReads) != 1 {
		t.Fatalf("WFR missed: %+v", vs)
	}
	vs = s.ObserveRead(rd(3, 500, 540, "m2", "m3"))
	if countAnomaly(vs, WritesFollowsReads) != 0 {
		t.Fatalf("clean WFR flagged: %+v", vs)
	}
}

func TestStreamDivergenceEdgeTriggered(t *testing.T) {
	s := NewStream()
	s.ObserveRead(rd(1, 0, 40, "m1"))
	vs := s.ObserveRead(rd(2, 50, 90, "m2"))
	if countAnomaly(vs, ContentDivergence) != 1 {
		t.Fatalf("CD onset missed: %+v", vs)
	}
	// Still diverged: no repeated event.
	vs = s.ObserveRead(rd(2, 150, 190, "m2"))
	if countAnomaly(vs, ContentDivergence) != 0 {
		t.Fatalf("CD re-reported while held: %+v", vs)
	}
	// Converge.
	vs = s.ObserveRead(rd(2, 250, 290, "m1", "m2"))
	vs = append(vs, s.ObserveRead(rd(1, 300, 340, "m1", "m2"))...)
	if countAnomaly(vs, ContentDivergence) != 0 {
		t.Fatalf("converged state flagged: %+v", vs)
	}
	c, o := s.Diverged(1, 2)
	if c || o {
		t.Fatal("Diverged should be false after convergence")
	}
	// Re-diverge: a fresh event.
	vs = s.ObserveRead(rd(1, 400, 440, "m1", "m3"))
	if countAnomaly(vs, ContentDivergence) != 1 {
		t.Fatalf("re-divergence missed: %+v", vs)
	}
}

func TestStreamOrderDivergence(t *testing.T) {
	s := NewStream()
	s.ObserveRead(rd(1, 0, 40, "m1", "m2"))
	vs := s.ObserveRead(rd(2, 50, 90, "m2", "m1"))
	if countAnomaly(vs, OrderDivergence) != 1 {
		t.Fatalf("OD missed: %+v", vs)
	}
	_, o := s.Diverged(2, 1)
	if !o {
		t.Fatal("Diverged(order) should hold")
	}
}

// TestStreamOrientsDivergenceAsCheckTest: whichever agent of a pair reads
// last, the stream reports the divergence as CheckTest does — the pair's
// first agent's sequence as S1, its witness in that order, and ReadIndex
// that agent's latest read.
func TestStreamOrientsDivergenceAsCheckTest(t *testing.T) {
	reads := []trace.Read{
		rd(1, 0, 40, "m1"),
		rd(1, 100, 140, "m1", "m2", "m4"),
		rd(2, 200, 240, "m2", "m1", "m3"),
	}
	want := CheckTest(newTrace(2, nil, reads))
	s := NewStream()
	s.ObserveRead(reads[0])
	s.ObserveRead(reads[1])
	got := s.ObserveRead(reads[2])
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("stream reports %v, CheckTest %v; want one content and one order divergence each", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stream reports %q (read #%d), CheckTest %q (read #%d)", got[i], got[i].ReadIndex, want[i], want[i].ReadIndex)
		}
	}
}

func TestStreamReset(t *testing.T) {
	s := NewStream()
	s.ObserveWrite(wr("m1", 1, 1, 0, 50))
	s.ObserveRead(rd(1, 100, 140, "m1"))
	s.Reset()
	// Previously seen write vanishing is no longer a violation.
	if vs := s.ObserveRead(rd(1, 200, 240)); len(vs) != 0 {
		t.Fatalf("state survived reset: %+v", vs)
	}
}

// TestStreamMatchesBatchCheckers replays full traces through the stream
// and cross-checks the session-guarantee counts against the batch
// checkers (metamorphic property: same inputs, same detections).
func TestStreamMatchesBatchCheckers(t *testing.T) {
	f := func(obsRaw [][]uint8, agentsRaw []uint8) bool {
		// Build a two-agent trace with writes m1,m2 by agent 1 and
		// arbitrary read observations.
		tr := newTrace(2,
			[]trace.Write{wr("a", 1, 1, 0, 10), wr("b", 1, 2, 20, 30)},
			nil)
		for i, o := range obsRaw {
			if i >= len(agentsRaw) || i > 20 {
				break
			}
			ag := 1 + int(agentsRaw[i])%2
			var ids []string
			seen := map[uint8]bool{}
			for _, x := range o {
				x %= 4
				if !seen[x] {
					seen[x] = true
					ids = append(ids, string(rune('a'+x)))
				}
			}
			tr.Reads = append(tr.Reads, rd(ag, 100+40*i, 120+40*i, ids...))
		}

		// Batch counts.
		batch := map[Anomaly]int{}
		for _, v := range CheckReadYourWrites(tr) {
			batch[v.Anomaly]++
		}
		for _, v := range CheckMonotonicWrites(tr) {
			batch[v.Anomaly]++
		}
		for _, v := range CheckMonotonicReads(tr) {
			batch[v.Anomaly]++
		}

		// Stream counts, replayed in timestamp order (reads are already
		// ordered by construction; writes first as they complete before
		// reads).
		s := NewStream()
		for _, w := range tr.Writes {
			s.ObserveWrite(w)
		}
		stream := map[Anomaly]int{}
		for _, r := range tr.Reads {
			for _, v := range s.ObserveRead(r) {
				stream[v.Anomaly]++
			}
		}
		return batch[ReadYourWrites] == stream[ReadYourWrites] &&
			batch[MonotonicWrites] == stream[MonotonicWrites] &&
			batch[MonotonicReads] == stream[MonotonicReads]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sessionByRead returns vs's session violations ordered by (agent, read,
// anomaly), each read's violations of one anomaly in the order reported.
func sessionByRead(vs []Violation) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Anomaly <= WritesFollowsReads {
			out = append(out, v)
		}
	}
	slices.SortStableFunc(out, func(a, b Violation) int {
		return cmp.Or(cmp.Compare(a.Agent, b.Agent), cmp.Compare(a.ReadIndex, b.ReadIndex), cmp.Compare(a.Anomaly, b.Anomaly))
	})
	return out
}

// replayByInvocation feeds tr to a fresh Stream: every write, then the
// reads in invocation order (ties in trace order), as the batch checkers
// number them.
func replayByInvocation(tr *trace.TestTrace) []Violation {
	reads := slices.Clone(tr.Reads)
	slices.SortStableFunc(reads, func(a, b trace.Read) int { return trace.CompareReads(&a, &b) })
	return replayStream(&trace.TestTrace{Writes: tr.Writes, Reads: reads})
}

// TestStreamMatchesCheckTestReadByRead: replayed through a Stream, a
// trace yields the session violations CheckTest finds, violation for
// violation — anomaly, agent, read index and both writes — and in the same
// order for every read.
func TestStreamMatchesCheckTestReadByRead(t *testing.T) {
	dependent := func(id, trigger string, agent, seq int) trace.Write {
		w := wr(id, agent, seq, 10*seq, 10*seq+5)
		w.Trigger = trace.WriteID(trigger)
		return w
	}
	check := func(name string, tr *trace.TestTrace) {
		t.Helper()
		want, got := sessionByRead(CheckTest(tr)), sessionByRead(replayByInvocation(tr))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: stream reports\n%v\nCheckTest\n%v", name, got, want)
		}
	}
	check("two dependent writes read in reverse", newTrace(2, []trace.Write{
		wr("m1", 1, 1, 0, 5), wr("m2", 1, 2, 10, 15),
		dependent("m3", "m1", 2, 1), dependent("m4", "m2", 2, 2),
	}, []trace.Read{rd(1, 100, 140, "m4", "m3")}))
	check("duplicate IDs in a read", newTrace(2, []trace.Write{
		wr("m1", 1, 1, 0, 5), dependent("m2", "m9", 2, 1), wr("m3", 1, 2, 10, 15),
	}, []trace.Read{rd(1, 100, 140, "m2", "m3", "m2"), rd(2, 100, 140, "m3", "m1", "m3"), rd(1, 200, 240)}))
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		check(fmt.Sprintf("random trace %d", i), randomTrace(r))
	}
}
