package core

import (
	"cmp"
	"slices"
	"time"

	"conprobe/internal/trace"
)

// Index is one trace prepared for every checker: operations grouped by
// agent and sorted once, and write IDs interned to small integers so the
// divergence kernel compares sequences without building a map per pair of
// reads. Build it with NewIndex, or Reset one kept from the last trace,
// and ask it for any anomaly or window; an Index is not safe for
// concurrent use and, pointing into itself, must not be copied once used.
type Index struct {
	tr  *trace.TestTrace
	ids interner
	// agents lists every agent with a read, ascending (in agentBuf up to
	// four; the paper's tests have three). An agent's reads are a stretch
	// of reads, sorted by (agent, invocation); each one's sequence, of flat.
	agents   []agentView
	agentBuf [4]agentView
	reads    []readView
	flat     []int32
	// writes is sorted by (agent, issue order); deps are the writes
	// carrying a trigger, in trace order.
	writes, deps []writeView
	k            kernel

	// pairs and events (of which each agent's byReturn is a stretch) are filled
	// by the trace's first window scan; hw is each reader's Monotonic Reads
	// high water in turn; what Check and Windows return is appended to the
	// last two.
	pairs      []Pair
	events     []event
	hw         highWater
	violations []Violation
	windows    []WindowResult
}

type agentView struct {
	id    trace.AgentID
	reads []readView // invocation order
	// byReturn is the reads in corrected-completion order; the first window
	// scan fills it for every agent.
	byReturn []event
}

// readView is a read and its interned Observed, flat[off:end]. run is the
// index in Index.reads of the first of the agent's consecutive reads that
// returned the same sequence: reads of one run have the same verdict
// against any sequence, so the divergence passes decide it once.
type readView struct {
	r             *trace.Read
	off, end, run int32
}

// writeView is a write with its ID and trigger interned (trigger -1 for
// none).
type writeView struct {
	*trace.Write
	id, trigger int32
}

type event struct {
	at  time.Time
	run int32
}

// NewIndex prepares tr for checking. The index reads tr but never
// modifies it.
func NewIndex(tr *trace.TestTrace) *Index { return new(Index).Reset(tr) }

// Reset prepares the index for tr in place of the trace it held, keeping
// every buffer it has grown, and returns it. What Check and Windows
// returned for the earlier trace is overwritten.
func (ix *Index) Reset(tr *trace.TestTrace) *Index {
	ix.tr = tr
	if ix.ids.byID == nil {
		ix.ids.byID = make(map[trace.WriteID]int32, len(tr.Writes))
	}
	clear(ix.ids.byID)
	// Reads mostly return the test's own writes.
	ix.ids.list = slices.Grow(ix.ids.list[:0], len(tr.Writes))
	ix.pairs, ix.violations, ix.windows = ix.pairs[:0], ix.violations[:0], ix.windows[:0]

	observed := 0
	for i := range tr.Reads {
		observed += len(tr.Reads[i].Observed)
	}
	flat := slices.Grow(ix.flat[:0], observed)
	reads := slices.Grow(ix.reads[:0], len(tr.Reads))
	for i := range tr.Reads {
		r := &tr.Reads[i]
		start := len(flat)
		for _, id := range r.Observed {
			flat = append(flat, ix.ids.intern(id))
		}
		reads = append(reads, readView{r: r, off: int32(start), end: int32(len(flat))})
	}
	ix.flat, ix.reads = flat, reads
	slices.SortStableFunc(reads, func(a, b readView) int {
		if c := cmp.Compare(a.r.Agent, b.r.Agent); c != 0 {
			return c
		}
		return trace.CompareReads(a.r, b.r)
	})
	for i := range reads {
		reads[i].run = int32(i)
		if i > 0 && reads[i].r.Agent == reads[i-1].r.Agent && slices.Equal(ix.seq(reads[i]), ix.seq(reads[i-1])) {
			reads[i].run = reads[i-1].run
		}
	}

	ix.writes, ix.deps = slices.Grow(ix.writes[:0], len(tr.Writes)), slices.Grow(ix.deps[:0], len(tr.Writes))
	for i := range tr.Writes {
		w := &tr.Writes[i]
		wv := writeView{Write: w, id: ix.ids.intern(w.ID), trigger: -1}
		if w.Trigger != "" {
			wv.trigger = ix.ids.intern(w.Trigger)
			ix.deps = append(ix.deps, wv)
		}
		ix.writes = append(ix.writes, wv)
	}
	slices.SortStableFunc(ix.writes, func(a, b writeView) int {
		if c := cmp.Compare(a.Agent, b.Agent); c != 0 {
			return c
		}
		return trace.CompareWrites(a.Write, b.Write)
	})
	ix.k.grow(len(ix.ids.list))

	// Cut the sorted reads into per-agent stretches.
	ix.agents = ix.agentBuf[:0]
	for len(reads) > 0 {
		n := 1
		for n < len(reads) && reads[n].r.Agent == reads[0].r.Agent {
			n++
		}
		ix.agents = append(ix.agents, agentView{id: reads[0].r.Agent, reads: reads[:n]})
		reads = reads[n:]
	}
	return ix
}

// seq returns r's interned Observed.
func (ix *Index) seq(r readView) []int32 { return ix.flat[r.off:r.end] }

// agent returns the view of agent id, empty if the agent never read.
func (ix *Index) agent(id trace.AgentID) agentView {
	i, ok := slices.BinarySearchFunc(ix.agents, id, func(av agentView, id trace.AgentID) int {
		return cmp.Compare(av.id, id)
	})
	if !ok {
		return agentView{id: id}
	}
	return ix.agents[i]
}

// interner maps write IDs to dense small integers.
type interner struct {
	byID map[trace.WriteID]int32
	list []trace.WriteID
}

func (in *interner) intern(id trace.WriteID) int32 {
	n, ok := in.byID[id]
	if !ok {
		n = int32(len(in.list))
		in.byID[id] = n
		in.list = append(in.list, id)
	}
	return n
}

// verdict is the outcome of both divergence conditions for an ordered
// pair of sequences; x and y witness the order divergence.
type verdict struct {
	content, order bool
	x, y           int32
}

func (v verdict) holds(a Anomaly) bool {
	if a == ContentDivergence {
		return v.content
	}
	return v.order
}

// kernel evaluates the divergence conditions over interned sequences
// without allocating: cells[id].pos is id's last position in the sequence
// most recently marked, valid only while cells[id].stamp equals epoch, so
// starting a new sequence costs one increment instead of clearing a map.
type kernel struct {
	cells []cell
	epoch uint32
	evals int // calls to diverged, for tests that pin the work
}

type cell struct {
	pos   int32
	stamp uint32
}

// grow makes room for ids below n, doubling so that a Stream, whose IDs
// arrive one at a time, does not reallocate for each.
func (k *kernel) grow(n int) {
	if len(k.cells) < n {
		k.cells, k.epoch = make([]cell, max(n, 2*len(k.cells))), 0
	}
}

func (k *kernel) mark(s []int32) {
	k.epoch++
	if k.epoch == 0 { // wrapped: old stamps could match again
		clear(k.cells)
		k.epoch = 1
	}
	for i, id := range s {
		k.cells[id] = cell{pos: int32(i), stamp: k.epoch}
	}
}

func (k *kernel) at(id int32) (int32, bool) { return k.cells[id].pos, k.cells[id].stamp == k.epoch }

// diverged evaluates
//
//	content: ∃ x ∈ S1, y ∈ S2 : x ∉ S2 ∧ y ∉ S1
//	order:   ∃ x, y ∈ S1 ∩ S2 : S1(x) ≺ S1(y) ∧ S2(y) ≺ S2(x)
//
// in one pass over each sequence. A repeated ID counts at every position
// in S1 and at its last position in S2. Order divergence is an inversion
// of S2 positions along S1, which a running maximum detects; the witness —
// the first x with a later y placed before it, and the first such y — is
// searched only when one exists.
func (k *kernel) diverged(s1, s2 []int32) verdict {
	var v verdict
	k.evals++
	k.mark(s2)
	onlyIn1, highest := false, int32(-1)
	for _, id := range s1 {
		switch p, ok := k.at(id); {
		case !ok:
			onlyIn1 = true
		case p < highest:
			v.order = true
		default:
			highest = p
		}
	}
	if v.order {
	search:
		for i, x := range s1 {
			px, ok := k.at(x)
			if !ok {
				continue
			}
			for _, y := range s1[i+1:] {
				if py, ok := k.at(y); ok && py < px {
					v.x, v.y = x, y
					break search
				}
			}
		}
	}
	if onlyIn1 {
		k.mark(s1)
		for _, id := range s2 {
			if _, ok := k.at(id); !ok {
				v.content = true
				break
			}
		}
	}
	return v
}
