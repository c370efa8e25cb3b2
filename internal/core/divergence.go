package core

import (
	"slices"
	"sync"
	"time"

	"conprobe/internal/trace"
)

// Pair identifies an unordered pair of agents, normalized so A < B.
type Pair struct {
	A, B trace.AgentID
}

// MakePair returns the normalized pair for a and b.
func MakePair(a, b trace.AgentID) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// appendPairs appends every unordered pair of agents 1..agents to out.
func appendPairs(out []Pair, agents int) []Pair {
	if agents < 2 {
		return out
	}
	// Sized for a plausible test: a trace file may declare any count, and
	// the product must neither overflow nor reserve memory on its say-so.
	n := min(agents, 64)
	out = slices.Grow(out, n*(n-1)/2)
	for a := 1; a <= agents; a++ {
		for b := a + 1; b <= agents; b++ {
			out = append(out, Pair{A: trace.AgentID(a), B: trace.AgentID(b)})
		}
	}
	return out
}

// ContentDiverged reports the Content Divergence condition between two
// observed sequences:
//
//	∃ x ∈ S1, y ∈ S2 : x ∉ S2 ∧ y ∉ S1
//
// It is exported for white-box monitors that evaluate the condition on
// replica logs directly.
func ContentDiverged(s1, s2 []trace.WriteID) bool {
	v, _, _ := diverged(s1, s2)
	return v.content
}

// OrderDiverged reports the Order Divergence condition between two
// observed sequences:
//
//	∃ x, y ∈ S1 ∩ S2 : S1(x) ≺ S1(y) ∧ S2(y) ≺ S2(x)
func OrderDiverged(s1, s2 []trace.WriteID) bool {
	v, _, _ := diverged(s1, s2)
	return v.order
}

// scratch is what one evaluation over raw write IDs needs; pooled, so the
// predicates allocate nothing once warm.
type scratch struct {
	ids  interner
	k    kernel
	a, b []int32
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{ids: interner{byID: make(map[trace.WriteID]int32)}}
}}

// diverged interns both sequences and runs the kernel on them; x and y
// witness an order divergence.
func diverged(s1, s2 []trace.WriteID) (v verdict, x, y trace.WriteID) {
	sc := scratchPool.Get().(*scratch)
	sc.a, sc.b = sc.a[:0], sc.b[:0]
	for _, id := range s1 {
		sc.a = append(sc.a, sc.ids.intern(id))
	}
	for _, id := range s2 {
		sc.b = append(sc.b, sc.ids.intern(id))
	}
	sc.k.grow(len(sc.ids.list))
	v = sc.k.diverged(sc.a, sc.b)
	if v.order {
		x, y = sc.ids.list[v.x], sc.ids.list[v.y]
	}
	// Leave no caller's strings behind in the pool.
	clear(sc.ids.byID)
	clear(sc.ids.list)
	sc.ids.list = sc.ids.list[:0]
	scratchPool.Put(sc)
	return v, x, y
}

// CheckContentDivergence detects Content Divergence between every pair of
// agents. For each pair, each of the first agent's reads that content-
// diverges from any read of the second agent yields one violation (the
// earliest diverging counterpart is recorded).
func CheckContentDivergence(tr *trace.TestTrace) []Violation {
	return NewIndex(tr).Check(ContentDivergence)
}

// CheckOrderDivergence detects Order Divergence between every pair of
// agents, one violation per diverging read of the pair's first agent.
func CheckOrderDivergence(tr *trace.TestTrace) []Violation {
	return NewIndex(tr).Check(OrderDivergence)
}

// divergence returns one violation per read of each pair's first agent
// that diverges from some read of the second, the earliest such read. A
// read in the run of the read before it has that read's outcome, and only
// the first read of each of B's runs is worth deciding.
func (ix *Index) divergence(kind Anomaly) {
	for i, ra := range ix.agents {
		for _, rb := range ix.agents[i+1:] {
			if ra.id < 1 || int(rb.id) > ix.tr.Agents {
				continue // a stray reader, not one of the test's pairs
			}
			hit := false // whether the read before diverged
			for i, r := range ra.reads {
				if i > 0 && r.run == ra.reads[i-1].run {
					if hit {
						v := ix.violations[len(ix.violations)-1]
						v.ReadIndex = i
						ix.violations = append(ix.violations, v)
					}
					continue
				}
				hit = false
				for j, o := range rb.reads {
					if j > 0 && o.run == rb.reads[j-1].run {
						continue
					}
					w := ix.k.diverged(ix.seq(r), ix.seq(o))
					if !w.holds(kind) {
						continue
					}
					v := Violation{Anomaly: kind, Agent: ra.id, Other: rb.id, ReadIndex: i}
					if kind == OrderDivergence {
						v.Write, v.Write2 = ix.ids.list[w.x], ix.ids.list[w.y]
					}
					// Room for the rest of A's reads: at most one each.
					ix.violations = append(slices.Grow(ix.violations, len(ra.reads)-i), v)
					hit = true
					break
				}
			}
		}
	}
}

// WindowResult summarizes the divergence windows observed between one pair
// of agents in one test (Section III, quantitative metrics).
type WindowResult struct {
	Pair Pair
	// Largest is the longest contiguous interval during which the
	// divergence condition held on the corrected global timeline. The
	// paper reports this value per pair per test.
	Largest time.Duration
	// Total is the sum of all divergence intervals.
	Total time.Duration
	// Count is the number of distinct divergence intervals.
	Count int
	// Converged reports whether the condition was false after the final
	// read of the test; the paper excludes non-converged runs from its
	// CDFs and reports their fraction separately.
	Converged bool
}

// ContentDivergenceWindows computes, for every agent pair, the windows
// during which the pair's most recent reads content-diverged. Timestamps
// are corrected to reference time with the trace's clock deltas; windows
// are measured between read-completion events, mirroring the paper's
// "as determined by the most recent read" rule.
func ContentDivergenceWindows(tr *trace.TestTrace) []WindowResult {
	return NewIndex(tr).Windows(ContentDivergence)
}

// OrderDivergenceWindows computes order-divergence windows per agent pair.
func OrderDivergenceWindows(tr *trace.TestTrace) []WindowResult {
	return NewIndex(tr).Windows(OrderDivergence)
}

// Windows measures the divergence windows of kind for every agent pair.
// Like Check's, the result is good until the next Reset.
func (ix *Index) Windows(kind Anomaly) []WindowResult {
	tr := ix.tr
	if len(ix.pairs) == 0 { // the trace's first scan
		if ix.pairs = appendPairs(ix.pairs, tr.Agents); len(ix.pairs) == 0 {
			return nil
		}
		ev := slices.Grow(ix.events[:0], len(ix.reads))[:len(ix.reads)]
		ix.events = ev
		for i := range ix.agents {
			av := &ix.agents[i]
			av.byReturn, ev = ev[:len(av.reads)], ev[len(av.reads):]
			for j, r := range av.reads {
				av.byReturn[j] = event{at: tr.Corrected(av.id, r.r.Returned), run: r.run}
			}
			slices.SortStableFunc(av.byReturn, func(x, y event) int { return x.at.Compare(y.at) })
		}
		ix.windows = slices.Grow(ix.windows, 2*len(ix.pairs)) // a scan per divergence kind
	}

	start := len(ix.windows)
	for _, p := range ix.pairs {
		res := WindowResult{Pair: p, Converged: true}
		var (
			// The runs of the pair's latest reads, and those cond was
			// decided for; -1 for none.
			lastA, lastB  int32 = -1, -1
			condA, condB  int32 = -1, -1
			cond          bool
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
		// Merge the pair's completion timelines; on a tie A's read comes
		// first, as in a stable sort of A's reads followed by B's.
		ea, eb := ix.agent(p.A).byReturn, ix.agent(p.B).byReturn
		for len(ea) > 0 || len(eb) > 0 {
			var ev event
			if len(eb) == 0 || len(ea) > 0 && !eb[0].at.Before(ea[0].at) {
				ev, ea = ea[0], ea[1:]
				lastA = ev.run
			} else {
				ev, eb = eb[0], eb[1:]
				lastB = ev.run
			}
			lastEventTime = ev.at
			if lastA >= 0 && lastB >= 0 && (lastA != condA || lastB != condB) {
				cond = ix.k.diverged(ix.seq(ix.reads[lastA]), ix.seq(ix.reads[lastB])).holds(kind)
				condA, condB = lastA, lastB
			}
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
		ix.windows = append(ix.windows, res)
	}
	return ix.windows[start:len(ix.windows):len(ix.windows)]
}
