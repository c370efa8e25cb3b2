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
// reads. Build it with NewIndex and ask it for any anomaly or window; an
// Index is not safe for concurrent use.
type Index struct {
	tr  *trace.TestTrace
	ids interner
	// agents lists every agent with a read, ascending; an agent's reads
	// are a run of one slice sorted by (agent, invocation).
	agents []agentView
	// writes is sorted by (agent, issue order); deps are the writes
	// carrying a trigger, in trace order.
	writes, deps []writeView
	k            kernel
}

type agentView struct {
	id    trace.AgentID
	reads []readView // invocation order
	// byReturn is the reads in corrected-completion order; the first window
	// scan fills it for every agent.
	byReturn []event
}

type readView struct {
	r   *trace.Read
	seq []int32 // Observed, interned
}

type writeView struct {
	w           *trace.Write
	id, trigger int32
}

type event struct {
	at  time.Time
	seq []int32
}

// NewIndex prepares tr for checking. The index reads tr but never
// modifies it.
func NewIndex(tr *trace.TestTrace) *Index {
	// Initial capacities fit the paper's tests: reads return the test's own
	// writes, three agents.
	ix := &Index{tr: tr, agents: make([]agentView, 0, 4)}
	ix.ids.byID = make(map[trace.WriteID]int32, len(tr.Writes))
	ix.ids.list = make([]trace.WriteID, 0, len(tr.Writes))

	observed := 0
	for i := range tr.Reads {
		observed += len(tr.Reads[i].Observed)
	}
	flat := make([]int32, 0, observed)
	reads := make([]readView, len(tr.Reads))
	for i := range tr.Reads {
		r := &tr.Reads[i]
		start := len(flat)
		for _, id := range r.Observed {
			flat = append(flat, ix.ids.intern(id))
		}
		reads[i] = readView{r: r, seq: flat[start:]}
	}
	slices.SortStableFunc(reads, func(a, b readView) int {
		if c := cmp.Compare(a.r.Agent, b.r.Agent); c != 0 {
			return c
		}
		return trace.CompareReads(a.r, b.r)
	})

	ix.writes = make([]writeView, len(tr.Writes))
	for i := range tr.Writes {
		w := &tr.Writes[i]
		ix.writes[i] = writeView{w: w, id: ix.ids.intern(w.ID), trigger: -1}
		if w.Trigger != "" {
			ix.writes[i].trigger = ix.ids.intern(w.Trigger)
			ix.deps = append(ix.deps, ix.writes[i])
		}
	}
	slices.SortStableFunc(ix.writes, func(a, b writeView) int {
		if c := cmp.Compare(a.w.Agent, b.w.Agent); c != 0 {
			return c
		}
		return trace.CompareWrites(a.w, b.w)
	})
	ix.k.grow(len(ix.ids.list))

	// Cut the sorted reads into per-agent runs.
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
// without allocating: pos[id] is id's last position in the sequence most
// recently marked, valid only while stamp[id] equals epoch, so starting
// a new sequence costs one increment instead of clearing a map.
type kernel struct {
	pos   []int32
	stamp []uint32
	epoch uint32
}

// grow makes room for ids below n.
func (k *kernel) grow(n int) {
	if len(k.pos) < n {
		k.pos, k.stamp, k.epoch = make([]int32, n), make([]uint32, n), 0
	}
}

func (k *kernel) mark(s []int32) {
	k.epoch++
	if k.epoch == 0 { // wrapped: old stamps could match again
		clear(k.stamp)
		k.epoch = 1
	}
	for i, id := range s {
		k.pos[id], k.stamp[id] = int32(i), k.epoch
	}
}

func (k *kernel) at(id int32) (int32, bool) { return k.pos[id], k.stamp[id] == k.epoch }

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
