package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call it makes into a layer's exported functions.
// Times are nanoseconds since the recorder was created.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Req is shared by every span of one request (or one campaign test).
	Req uint64 `json:"req"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run pays only a nil check.
type recorder struct {
	epoch time.Time
	// on gates recording: a traced run keeps it off through the set-up and
	// the reference window, so both are measured as an untraced run's are.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent int, req uint64) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once, and a child is clipped to its parent's interval).
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.Start
		for _, c := range ivs {
			if c.b <= reach {
				continue
			}
			covered += c.b - max(c.a, reach)
			reach = c.b
		}
		self[i] -= covered
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Count       int
	Total, Self time.Duration
	durs        []time.Duration
}

// summarize groups spans by name.
func summarize(spans []span) map[string]*spanSummary {
	self := selfTimes(spans)
	out := make(map[string]*spanSummary)
	for i, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		d := time.Duration(s.End - s.Start)
		sum.Count++
		sum.Total += d
		sum.Self += time.Duration(self[i])
		sum.durs = append(sum.durs, d)
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
