package core

import (
	"slices"

	"conprobe/internal/trace"
)

// The session checkers report in a fixed order: agents ascending, each
// agent's reads in invocation order, and per read the order each checker
// documents.

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

func (ix *Index) readYourWrites() {
	for _, av := range ix.agents {
		for ri, r := range av.reads {
			seq := ix.seq(r)
			for _, w := range ix.writes {
				// Only the agent's own writes, acknowledged before the
				// read was issued, are required to be visible.
				if w.w.Agent != av.id || w.w.Returned.After(r.r.Invoked) {
					continue
				}
				if !slices.Contains(seq, w.id) {
					ix.violations = append(ix.violations, Violation{
						Anomaly:   ReadYourWrites,
						Agent:     av.id,
						ReadIndex: ri,
						Write:     w.w.ID,
					})
				}
			}
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

func (ix *Index) monotonicWrites() {
	ws := ix.writes
	for _, av := range ix.agents {
		for ri, r := range av.reads {
			seq := ix.seq(r)
			for i := range ws {
				// Every later write of the same writer.
				for j := i + 1; j < len(ws) && ws[j].w.Agent == ws[i].w.Agent; j++ {
					py := slices.Index(seq, ws[j].id)
					if py < 0 {
						continue // y not visible: no constraint
					}
					px := slices.Index(seq, ws[i].id)
					if px < 0 || py < px {
						ix.violations = append(ix.violations, Violation{
							Anomaly:   MonotonicWrites,
							Agent:     av.id,
							ReadIndex: ri,
							Write:     ws[i].w.ID,
							Write2:    ws[j].w.ID,
						})
					}
				}
			}
		}
	}
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

func (ix *Index) monotonicReads() {
	ix.seen = slices.Grow(ix.seen[:0], len(ix.ids.list))[:len(ix.ids.list)]
	for _, av := range ix.agents {
		clear(ix.seen)
		ix.order = ix.order[:0] // seen, by first observation
		for ri, r := range av.reads {
			seq := ix.seq(r)
			for _, id := range ix.order {
				if !slices.Contains(seq, id) {
					ix.violations = append(ix.violations, Violation{
						Anomaly:   MonotonicReads,
						Agent:     av.id,
						ReadIndex: ri,
						Write:     ix.ids.list[id],
					})
				}
			}
			for _, id := range seq {
				if !ix.seen[id] {
					ix.seen[id] = true
					ix.order = append(ix.order, id)
				}
			}
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

func (ix *Index) writesFollowsReads() {
	for _, av := range ix.agents {
		for ri, r := range av.reads {
			seq := ix.seq(r)
			for _, w := range ix.deps {
				if slices.Contains(seq, w.id) && !slices.Contains(seq, w.trigger) {
					ix.violations = append(ix.violations, Violation{
						Anomaly:   WritesFollowsReads,
						Agent:     av.id,
						ReadIndex: ri,
						Write:     w.w.Trigger,
						Write2:    w.w.ID,
					})
				}
			}
		}
	}
}
