package core

import (
	"sort"
	"time"

	"conprobe/internal/trace"
)

// The reference oracle: the checkers as they were before the per-trace
// index — a map per predicate call, every read of A against every read of
// B, one regrouping of the trace per checker. The predicates, the pair
// scan and the window scan are the originals verbatim; the session checkers
// take one liberty, a fixed iteration order (agents ascending, monotonic-
// reads high water in first-observed order) where the originals ranged over
// maps. The indexed checkers must return what expectedCheck makes of these.

// ReferenceCheck is the oracle for Index.Check and the Check functions.
func ReferenceCheck(tr *trace.TestTrace, a Anomaly) []Violation {
	switch a {
	case ReadYourWrites:
		return refReadYourWrites(tr)
	case MonotonicWrites:
		return refMonotonicWrites(tr)
	case MonotonicReads:
		return refMonotonicReads(tr)
	case WritesFollowsReads:
		return refWritesFollowsReads(tr)
	case ContentDivergence, OrderDivergence:
		return refCheckDivergence(tr, a)
	}
	return nil
}

// ReferenceWindows is the oracle for Index.Windows and the two
// DivergenceWindows functions.
func ReferenceWindows(tr *trace.TestTrace, a Anomaly) []WindowResult {
	if a == ContentDivergence {
		return refDivergenceWindows(tr, refContentDiverged)
	}
	return refDivergenceWindows(tr, func(s1, s2 []trace.WriteID) bool {
		_, _, ok := refOrderDiverged(s1, s2)
		return ok
	})
}

// expectedCheck is what the indexed checkers must return for a: the
// oracle's violations, except that a read of a pair's first agent is
// reported once, against its earliest diverging counterpart. The original
// pair scan documented that rule but reported the read once per diverging
// read of the second agent (see refCheckDivergence).
func expectedCheck(tr *trace.TestTrace, a Anomaly) []Violation {
	vs := ReferenceCheck(tr, a)
	if a != ContentDivergence && a != OrderDivergence {
		return vs
	}
	type key struct {
		agent, other trace.AgentID
		read         int
	}
	seen := make(map[key]bool)
	var out []Violation
	for _, v := range vs {
		k := key{v.Agent, v.Other, v.ReadIndex}
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

func expectedCheckTest(tr *trace.TestTrace) []Violation {
	var out []Violation
	for _, a := range AllAnomalies() {
		out = append(out, expectedCheck(tr, a)...)
	}
	return out
}

func refContentDiverged(s1, s2 []trace.WriteID) bool {
	set1 := make(map[trace.WriteID]bool, len(s1))
	for _, x := range s1 {
		set1[x] = true
	}
	onlyIn1 := false
	set2 := make(map[trace.WriteID]bool, len(s2))
	for _, y := range s2 {
		set2[y] = true
	}
	for _, x := range s1 {
		if !set2[x] {
			onlyIn1 = true
			break
		}
	}
	if !onlyIn1 {
		return false
	}
	for _, y := range s2 {
		if !set1[y] {
			return true
		}
	}
	return false
}

func refOrderDiverged(s1, s2 []trace.WriteID) (trace.WriteID, trace.WriteID, bool) {
	pos2 := make(map[trace.WriteID]int, len(s2))
	for i, id := range s2 {
		pos2[id] = i
	}
	// Collect the common subsequence in S1 order with its S2 positions;
	// any inversion witnesses divergence.
	type elem struct {
		id trace.WriteID
		p2 int
	}
	var common []elem
	for _, id := range s1 {
		if p, ok := pos2[id]; ok {
			common = append(common, elem{id: id, p2: p})
		}
	}
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			if common[j].p2 < common[i].p2 {
				return common[i].id, common[j].id, true
			}
		}
	}
	return "", "", false
}

func refPairs(tr *trace.TestTrace) []Pair {
	var out []Pair
	for a := 1; a <= tr.Agents; a++ {
		for b := a + 1; b <= tr.Agents; b++ {
			out = append(out, Pair{A: trace.AgentID(a), B: trace.AgentID(b)})
		}
	}
	return out
}

// refCheckDivergence is the quadratic pair scan, verbatim. Its
// `j = len(rb)` does not end the scan of a `for j := range rb` loop, so a
// read of A is reported once for every read of B it diverges from.
func refCheckDivergence(tr *trace.TestTrace, kind Anomaly) []Violation {
	reads := tr.ReadsByAgent()
	var out []Violation
	for _, p := range refPairs(tr) {
		ra, rb := reads[p.A], reads[p.B]
		for i := range ra {
			for j := range rb {
				switch kind {
				case ContentDivergence:
					if refContentDiverged(ra[i].Observed, rb[j].Observed) {
						out = append(out, Violation{
							Anomaly:   ContentDivergence,
							Agent:     p.A,
							Other:     p.B,
							ReadIndex: i,
						})
						j = len(rb) // one violation per read of A
					}
				case OrderDivergence:
					if x, y, ok := refOrderDiverged(ra[i].Observed, rb[j].Observed); ok {
						out = append(out, Violation{
							Anomaly:   OrderDivergence,
							Agent:     p.A,
							Other:     p.B,
							ReadIndex: i,
							Write:     x,
							Write2:    y,
						})
						j = len(rb)
					}
				}
			}
		}
	}
	return out
}

type refTimelineEvent struct {
	at    time.Time
	agent trace.AgentID
	read  *trace.Read
}

func refDivergenceWindows(tr *trace.TestTrace, diverged func(s1, s2 []trace.WriteID) bool) []WindowResult {
	reads := tr.ReadsByAgent()
	var out []WindowResult
	for _, p := range refPairs(tr) {
		// Merge the pair's reads into one corrected-time event stream.
		var events []refTimelineEvent
		for _, ag := range []trace.AgentID{p.A, p.B} {
			rs := reads[ag]
			for i := range rs {
				events = append(events, refTimelineEvent{
					at:    tr.Corrected(ag, rs[i].Returned),
					agent: ag,
					read:  &rs[i],
				})
			}
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })

		res := WindowResult{Pair: p, Converged: true}
		var (
			lastA, lastB  []trace.WriteID
			haveA, haveB  bool
			inWindow      bool
			windowStart   time.Time
			lastEventTime time.Time
		)
		closeWindow := func(end time.Time) {
			d := end.Sub(windowStart)
			if d < 0 {
				d = 0
			}
			res.Total += d
			res.Count++
			if d > res.Largest {
				res.Largest = d
			}
		}
		for _, ev := range events {
			if ev.agent == p.A {
				lastA, haveA = ev.read.Observed, true
			} else {
				lastB, haveB = ev.read.Observed, true
			}
			lastEventTime = ev.at
			cond := haveA && haveB && diverged(lastA, lastB)
			switch {
			case cond && !inWindow:
				inWindow = true
				windowStart = ev.at
			case !cond && inWindow:
				inWindow = false
				closeWindow(ev.at)
			}
		}
		if inWindow {
			// Still diverged at the end of the test.
			res.Converged = false
			closeWindow(lastEventTime)
		}
		out = append(out, res)
	}
	return out
}

// refAgents returns the agents of a ReadsByAgent or WritesByAgent map,
// ascending.
func refAgents[V any](m map[trace.AgentID]V) []trace.AgentID {
	out := make([]trace.AgentID, 0, len(m))
	for ag := range m {
		out = append(out, ag)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refReadYourWrites(tr *trace.TestTrace) []Violation {
	var out []Violation
	writes := tr.WritesByAgent()
	reads := tr.ReadsByAgent()
	for _, agent := range refAgents(reads) {
		rs := reads[agent]
		for ri := range rs {
			r := &rs[ri]
			for _, w := range writes[agent] {
				if w.Returned.After(r.Invoked) {
					continue
				}
				if !r.Contains(w.ID) {
					out = append(out, Violation{
						Anomaly:   ReadYourWrites,
						Agent:     agent,
						ReadIndex: ri,
						Write:     w.ID,
					})
				}
			}
		}
	}
	return out
}

func refMonotonicWrites(tr *trace.TestTrace) []Violation {
	var out []Violation
	writes := tr.WritesByAgent()
	reads := tr.ReadsByAgent()
	for _, reader := range refAgents(reads) {
		rs := reads[reader]
		for ri := range rs {
			r := &rs[ri]
			for _, writer := range refAgents(writes) {
				ws := writes[writer]
				for i := 0; i < len(ws); i++ {
					for j := i + 1; j < len(ws); j++ {
						x, y := ws[i], ws[j]
						py := r.Position(y.ID)
						if py < 0 {
							continue
						}
						px := r.Position(x.ID)
						if px < 0 || py < px {
							out = append(out, Violation{
								Anomaly:   MonotonicWrites,
								Agent:     reader,
								ReadIndex: ri,
								Write:     x.ID,
								Write2:    y.ID,
							})
						}
					}
				}
			}
		}
	}
	return out
}

func refMonotonicReads(tr *trace.TestTrace) []Violation {
	var out []Violation
	reads := tr.ReadsByAgent()
	for _, agent := range refAgents(reads) {
		rs := reads[agent]
		seen := make(map[trace.WriteID]bool)
		var order []trace.WriteID
		for ri := range rs {
			r := &rs[ri]
			for _, id := range order {
				if !r.Contains(id) {
					out = append(out, Violation{
						Anomaly:   MonotonicReads,
						Agent:     agent,
						ReadIndex: ri,
						Write:     id,
					})
				}
			}
			for _, id := range r.Observed {
				if !seen[id] {
					seen[id] = true
					order = append(order, id)
				}
			}
		}
	}
	return out
}

func refWritesFollowsReads(tr *trace.TestTrace) []Violation {
	var deps []trace.Write
	for _, w := range tr.Writes {
		if w.Trigger != "" {
			deps = append(deps, w)
		}
	}
	var out []Violation
	reads := tr.ReadsByAgent()
	for _, reader := range refAgents(reads) {
		rs := reads[reader]
		for ri := range rs {
			r := &rs[ri]
			for _, w := range deps {
				if r.Contains(w.ID) && !r.Contains(w.Trigger) {
					out = append(out, Violation{
						Anomaly:   WritesFollowsReads,
						Agent:     reader,
						ReadIndex: ri,
						Write:     w.Trigger,
						Write2:    w.ID,
					})
				}
			}
		}
	}
	return out
}
