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
// Session guarantees are evaluated exactly as the batch checkers do.
// Divergence anomalies are edge-triggered: a violation is emitted when a
// pair of agents' most recent reads enters the divergence condition, and
// again only after the pair has converged in between. Windows are not
// computed online — they need the clock-delta-corrected timeline and are
// left to the offline analysis.
type Stream struct {
	mu sync.Mutex

	// agents holds every agent seen so far, ascending, so violations come
	// out in the same order on every run.
	agents []*streamAgent
	byID   map[trace.WriteID]trace.Write
	// contentDiv and orderDiv track which pairs are currently in each
	// condition.
	contentDiv map[Pair]bool
	orderDiv   map[Pair]bool
}

type streamAgent struct {
	id trace.AgentID
	// writes in issue order.
	writes []trace.Write
	// seen is the monotonic-reads high water, in first-observed order.
	seen []trace.WriteID
	// latest is the most recent read's sequence, once reads > 0.
	latest []trace.WriteID
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
	// Keep issue order: after every write with the same or a lower Seq.
	i := sort.Search(len(a.writes), func(i int) bool { return a.writes[i].Seq > w.Seq })
	a.writes = slices.Insert(a.writes, i, w)
	s.byID[w.ID] = w
}

// ObserveRead records a completed read and returns the violations it
// exposes.
func (s *Stream) ObserveRead(r trace.Read) []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()

	me := s.agent(r.Agent)
	idx := me.reads
	me.reads++
	var out []Violation

	// Read Your Writes: own completed writes must be present.
	for _, w := range me.writes {
		if w.Returned.After(r.Invoked) {
			continue
		}
		if !r.Contains(w.ID) {
			out = append(out, Violation{
				Anomaly: ReadYourWrites, Agent: r.Agent, ReadIndex: idx, Write: w.ID,
			})
		}
	}

	// Monotonic Writes: every writer's issue order must be respected.
	for _, writer := range s.agents {
		ws := writer.writes
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				py := r.Position(ws[j].ID)
				if py < 0 {
					continue
				}
				px := r.Position(ws[i].ID)
				if px < 0 || py < px {
					out = append(out, Violation{
						Anomaly: MonotonicWrites, Agent: r.Agent, ReadIndex: idx,
						Write: ws[i].ID, Write2: ws[j].ID,
					})
				}
			}
		}
	}

	// Monotonic Reads: nothing this agent has seen may disappear.
	for _, id := range me.seen {
		if !r.Contains(id) {
			out = append(out, Violation{
				Anomaly: MonotonicReads, Agent: r.Agent, ReadIndex: idx, Write: id,
			})
		}
	}
	for _, id := range r.Observed {
		if !slices.Contains(me.seen, id) {
			me.seen = append(me.seen, id)
		}
	}

	// Writes Follows Reads: dependent writes require their triggers.
	for _, id := range r.Observed {
		w, ok := s.byID[id]
		if !ok || w.Trigger == "" {
			continue
		}
		if !r.Contains(w.Trigger) {
			out = append(out, Violation{
				Anomaly: WritesFollowsReads, Agent: r.Agent, ReadIndex: idx,
				Write: w.Trigger, Write2: w.ID,
			})
		}
	}

	// Divergence against every other agent's latest read,
	// edge-triggered. As in the batch checkers, the pair's first agent
	// is S1 and ReadIndex its latest read, whichever agent just read.
	me.latest = append(me.latest[:0], r.Observed...)
	for _, other := range s.agents {
		if other == me || other.reads == 0 {
			continue
		}
		a, b := me, other
		if b.id < a.id {
			a, b = b, a
		}
		p := Pair{A: a.id, B: b.id}
		v, x, y := diverged(a.latest, b.latest)
		if v.content && !s.contentDiv[p] {
			out = append(out, Violation{
				Anomaly: ContentDivergence, Agent: p.A, Other: p.B, ReadIndex: a.reads - 1,
			})
		}
		s.contentDiv[p] = v.content
		if v.order && !s.orderDiv[p] {
			out = append(out, Violation{
				Anomaly: OrderDivergence, Agent: p.A, Other: p.B, ReadIndex: a.reads - 1,
				Write: x, Write2: y,
			})
		}
		s.orderDiv[p] = v.order
	}
	return out
}

// Diverged reports whether the pair is currently content- or
// order-diverged according to the latest reads.
func (s *Stream) Diverged(a, b trace.AgentID) (content, order bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := MakePair(a, b)
	return s.contentDiv[p], s.orderDiv[p]
}

// Reset clears all state (e.g. between monitoring epochs).
func (s *Stream) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agents = nil
	s.byID = make(map[trace.WriteID]trace.Write)
	s.contentDiv = make(map[Pair]bool)
	s.orderDiv = make(map[Pair]bool)
}
