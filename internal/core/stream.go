package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"conprobe/internal/trace"
)

// Stream is an online anomaly detector: operations are fed as they
// complete and violations are reported by the read that exposes them.
// It powers live monitoring (cmd/conwatch), where waiting for a full
// test trace is not an option.
//
// Session guarantees are the batch checkers' own per-read checks, run on
// each read as it arrives against the writes observed so far; divergence
// is decided by the batch checkers' kernel. Divergence anomalies are
// edge-triggered: a violation is emitted when a pair of agents' most
// recent reads enters the divergence condition, and again only after the
// pair has converged in between. Windows are not computed online — they
// need the clock-delta-corrected timeline and are left to the offline
// analysis.
type Stream struct {
	mu sync.Mutex

	ids interner
	k   kernel
	// agents holds every agent seen so far, ascending, so violations come
	// out in the same order on every run.
	agents []*streamAgent
	// deps are the writes carrying a trigger, in arrival order.
	deps []writeView
	// div holds each pair's verdict on its latest reads.
	div map[Pair]verdict
}

type streamAgent struct {
	id trace.AgentID
	// writes in issue order (trace.CompareWrites), arrival order on a tie.
	writes []writeView
	hw     highWater
	// latest is the most recent read's interned sequence, once reads > 0.
	latest []int32
	reads  int
}

// NewStream returns an empty online detector.
func NewStream() *Stream {
	s := &Stream{}
	s.Reset()
	return s
}

// agent returns id's state, creating it on first sight.
func (s *Stream) agent(id trace.AgentID) *streamAgent {
	i, ok := slices.BinarySearchFunc(s.agents, id, func(a *streamAgent, id trace.AgentID) int {
		return cmp.Compare(a.id, id)
	})
	if !ok {
		s.agents = slices.Insert(s.agents, i, &streamAgent{id: id})
	}
	return s.agents[i]
}

// ObserveWrite records a completed write.
func (s *Stream) ObserveWrite(w trace.Write) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.agent(w.Agent)
	wv := writeView{Write: &w, id: s.ids.intern(w.ID), trigger: -1}
	if w.Trigger != "" {
		wv.trigger = s.ids.intern(w.Trigger)
		s.deps = append(s.deps, wv)
	}
	i := sort.Search(len(a.writes), func(i int) bool { return trace.CompareWrites(a.writes[i].Write, &w) > 0 })
	a.writes = slices.Insert(a.writes, i, wv)
}

// ObserveRead records a completed read and returns the violations it
// exposes.
func (s *Stream) ObserveRead(r trace.Read) []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()

	me := s.agent(r.Agent)
	me.latest = me.latest[:0]
	for _, id := range r.Observed {
		me.latest = append(me.latest, s.ids.intern(id))
	}
	c := readCheck{agent: r.Agent, index: me.reads, invoked: r.Invoked, seq: me.latest}
	me.reads++
	c.readYourWrites(me.writes)
	for _, writer := range s.agents {
		c.monotonicWrites(writer.writes)
	}
	c.monotonicReads(&me.hw, s.ids.list)
	c.writesFollowsReads(s.deps)
	out := c.out

	// Divergence against every other agent's latest read,
	// edge-triggered. As in the batch checkers, the pair's first agent
	// is S1 and ReadIndex its latest read, whichever agent just read.
	s.k.grow(len(s.ids.list))
	for _, other := range s.agents {
		if other == me || other.reads == 0 {
			continue
		}
		a, b := me, other
		if b.id < a.id {
			a, b = b, a
		}
		p := Pair{A: a.id, B: b.id}
		v, was := s.k.diverged(a.latest, b.latest), s.div[p]
		s.div[p] = v
		at := Violation{Agent: p.A, Other: p.B, ReadIndex: a.reads - 1}
		if v.content && !was.content {
			at.Anomaly = ContentDivergence
			out = append(out, at)
		}
		if v.order && !was.order {
			at.Anomaly, at.Write, at.Write2 = OrderDivergence, s.ids.list[v.x], s.ids.list[v.y]
			out = append(out, at)
		}
	}
	return out
}

// Diverged reports whether the pair is currently content- or
// order-diverged according to the latest reads.
func (s *Stream) Diverged(a, b trace.AgentID) (content, order bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.div[MakePair(a, b)]
	return v.content, v.order
}

// Reset clears all state (e.g. between monitoring epochs).
func (s *Stream) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids = interner{byID: make(map[trace.WriteID]int32)}
	s.agents, s.deps = nil, nil
	s.div = make(map[Pair]verdict)
}
