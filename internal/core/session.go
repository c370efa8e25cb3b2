package core

import (
	"slices"
	"time"

	"conprobe/internal/trace"
)

// Each session guarantee is defined once below, as a check of one read
// against the state that guarantee needs; Index runs the checks over a
// whole trace and Stream over each read as it completes. They report in a
// fixed order: agents ascending, each agent's reads in invocation order,
// and per read the order each check documents.

// readCheck is one read as the session checks take it — the reader, the
// read's index among the reader's reads, when it was invoked and its
// interned Observed — and out, which each check appends the read's
// violations to.
type readCheck struct {
	agent   trace.AgentID
	index   int
	invoked time.Time
	seq     []int32
	out     []Violation
}

func (c *readCheck) report(a Anomaly, w, w2 trace.WriteID) {
	c.out = append(c.out, Violation{Anomaly: a, Agent: c.agent, ReadIndex: c.index, Write: w, Write2: w2})
}

// CheckReadYourWrites detects Read Your Writes violations:
//
//	∃ x ∈ W : x ∉ S
//
// where W is the set of writes completed by a client before it invoked a
// read returning S. One violation is reported per (read, missing write),
// writes in issue order.
func CheckReadYourWrites(tr *trace.TestTrace) []Violation {
	return NewIndex(tr).Check(ReadYourWrites)
}

// readYourWrites reports the read's Read Your Writes violations; writes
// are in (agent, issue) order.
func (c *readCheck) readYourWrites(writes []writeView) {
	for _, w := range writes {
		// Only the reader's own writes, acknowledged before the read was
		// issued, are required to be visible.
		if w.Agent == c.agent && !w.Returned.After(c.invoked) && !slices.Contains(c.seq, w.id) {
			c.report(ReadYourWrites, w.ID, "")
		}
	}
}

// CheckMonotonicWrites detects Monotonic Writes violations:
//
//	∃ x, y ∈ W : W(x) ≺ W(y) ∧ y ∈ S ∧ (x ∉ S ∨ S(y) ≺ S(x))
//
// for W the issue-ordered writes of any single client and S the sequence
// returned by a read issued by any client. One violation is reported per
// (read, offending write pair), writers ascending.
func CheckMonotonicWrites(tr *trace.TestTrace) []Violation {
	return NewIndex(tr).Check(MonotonicWrites)
}

// monotonicWrites reports the read's Monotonic Writes violations; writes
// are in (agent, issue) order.
func (c *readCheck) monotonicWrites(writes []writeView) {
	for i, x := range writes {
		// Every later write of the same writer.
		for j := i + 1; j < len(writes) && writes[j].Agent == x.Agent; j++ {
			y := writes[j]
			py := slices.Index(c.seq, y.id)
			if py < 0 {
				continue // y not visible: no constraint
			}
			if px := slices.Index(c.seq, x.id); px < 0 || py < px {
				c.report(MonotonicWrites, x.ID, y.ID)
			}
		}
	}
}

// wroteTwice reports whether an agent issued two writes.
func (ix *Index) wroteTwice() bool {
	for i := 1; i < len(ix.writes); i++ {
		if ix.writes[i].Agent == ix.writes[i-1].Agent { // sorted by agent
			return true
		}
	}
	return false
}

// CheckMonotonicReads detects Monotonic Reads violations:
//
//	∃ x ∈ S1 : x ∉ S2
//
// for S1, S2 returned by two reads of the same client, in that order. A
// high-water implementation is used: each read is compared against the set
// of all writes the client observed in earlier reads, and one violation is
// reported per (read, disappeared write), writes in the order the client
// first observed them. This counts each disappearance once rather than
// once per earlier read that saw the write.
func CheckMonotonicReads(tr *trace.TestTrace) []Violation {
	return NewIndex(tr).Check(MonotonicReads)
}

// highWater is a reader's Monotonic Reads state: every write its earlier
// reads observed, as a set over interned IDs and in first-observed order.
type highWater struct {
	seen  []bool
	order []int32
}

// reset empties hw for interned IDs below n.
func (hw *highWater) reset(n int) {
	hw.seen, hw.order = slices.Grow(hw.seen[:0], n)[:n], hw.order[:0]
	clear(hw.seen)
}

// monotonicReads reports the read's Monotonic Reads violations and raises
// the reader's high water hw by the read; ids names the interned IDs.
func (c *readCheck) monotonicReads(hw *highWater, ids []trace.WriteID) {
	for _, id := range hw.order {
		if !slices.Contains(c.seq, id) {
			c.report(MonotonicReads, ids[id], "")
		}
	}
	for _, id := range c.seq {
		if n := int(id) + 1 - len(hw.seen); n > 0 { // a Stream interns as reads arrive
			hw.seen = append(hw.seen, make([]bool, n)...)
		}
		if !hw.seen[id] {
			hw.seen[id] = true
			hw.order = append(hw.order, id)
		}
	}
}

// CheckWritesFollowsReads detects Writes Follows Reads violations:
//
//	w ∈ S2 ∧ ∃ x ∈ S1 : x ∉ S2
//
// where w is a write issued by a client after observing x in a read
// returning S1, and S2 is returned by a read issued by any client. The
// causal dependency is recorded by the test harness in Write.Trigger
// (Test 1 sets M2→M3 and M4→M5, the only designated trigger pairs). One
// violation is reported per (read, dependent write), writes in trace
// order.
func CheckWritesFollowsReads(tr *trace.TestTrace) []Violation {
	return NewIndex(tr).Check(WritesFollowsReads)
}

// writesFollowsReads reports the read's Writes Follows Reads violations;
// deps are the writes carrying a trigger, in trace order.
func (c *readCheck) writesFollowsReads(deps []writeView) {
	for _, w := range deps {
		if slices.Contains(c.seq, w.id) && !slices.Contains(c.seq, w.trigger) {
			c.report(WritesFollowsReads, w.Trigger, w.ID)
		}
	}
}

// session appends the violations of session guarantee a over every read
// of the trace; none can break Monotonic Writes or Writes Follows Reads
// without a writer that wrote twice or a write with a trigger.
func (ix *Index) session(a Anomaly) {
	if (a == MonotonicWrites && !ix.wroteTwice()) || (a == WritesFollowsReads && len(ix.deps) == 0) {
		return
	}
	c := readCheck{out: ix.violations}
	for _, av := range ix.agents {
		ix.hw.reset(len(ix.ids.list))
		for ri, r := range av.reads {
			c.agent, c.index, c.seq = av.id, ri, ix.seq(r)
			switch a {
			case ReadYourWrites:
				c.invoked = r.r.Invoked
				c.readYourWrites(ix.writes)
			case MonotonicWrites:
				c.monotonicWrites(ix.writes)
			case MonotonicReads:
				c.monotonicReads(&ix.hw, ix.ids.list)
			case WritesFollowsReads:
				c.writesFollowsReads(ix.deps)
			}
		}
	}
	ix.violations = c.out
}
