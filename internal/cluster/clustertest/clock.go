// Package clustertest is a deterministic harness for the replicated
// cluster: real cluster.Nodes wired over an in-process transport on a
// virtual clock, with scriptable partitions, delays, kills and
// restarts. Elections are timing protocols, so testing them against
// wall time is testing the scheduler's mood; here every timer firing
// and message delivery happens at a virtual instant derived only from
// the seed, which makes election-safety and log-matching property runs
// reproducible byte for byte — the failing seed IS the repro.
//
// Everything runs on the test goroutine: timers and message deliveries
// are events on one (time, sequence)-ordered heap, drained by
// Clock.RunUntil. Node code never blocks inside the harness (writes go
// through ProposeWrite, not the quorum-waiting Write), so the event
// loop never stalls.
package clustertest

import (
	"container/heap"
	"sync"
	"time"

	"conprobe/internal/vtime"
)

// epoch is the fixed virtual start instant; transcripts reference
// offsets from it, never the host clock.
var epoch = time.Unix(0, 0).UTC()

// Clock is a deterministic vtime.Clock: AfterFunc schedules onto an
// event heap ordered by (fire time, creation sequence), and RunUntil
// drains it. Sleep is unsupported — nothing in the cluster node sleeps,
// and a sleeper would stall the single-threaded event loop.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	events eventHeap
}

// NewClock starts a virtual clock at the fixed epoch.
func NewClock() *Clock {
	return &Clock{now: epoch}
}

type event struct {
	at      time.Time
	seq     uint64
	fn      func()
	stopped bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep is not supported: the harness is single-threaded and a sleeping
// goroutine would deadlock it. Cluster nodes never call Sleep.
func (c *Clock) Sleep(d time.Duration) {
	panic("clustertest: Sleep is unsupported in the deterministic harness")
}

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// AfterFunc schedules f at now+d. f runs inside RunUntil, on the
// harness goroutine.
func (c *Clock) AfterFunc(d time.Duration, f func()) vtime.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &simTimer{c: c, fn: f, ev: c.pushLocked(d, f)}
}

// pushLocked queues f at now+d (a negative d is zero). Caller holds mu.
func (c *Clock) pushLocked(d time.Duration, f func()) *event {
	if d < 0 {
		d = 0
	}
	ev := &event{at: c.now.Add(d), seq: c.seq, fn: f}
	c.seq++
	heap.Push(&c.events, ev)
	return ev
}

type simTimer struct {
	c  *Clock
	fn func()
	ev *event // the latest arm; guarded by c.mu
}

// Stop cancels the pending event; it reports whether the event had not
// yet fired (fired events have a nil fn).
func (t *simTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := !t.ev.stopped && t.ev.fn != nil
	t.ev.stopped = true
	return was
}

// Reset is Stop followed by an AfterFunc of the same function, under
// one lock and behind the same handle.
func (t *simTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := !t.ev.stopped && t.ev.fn != nil
	t.ev.stopped = true
	t.ev = t.c.pushLocked(d, t.fn)
	return was
}

// RunUntil executes every scheduled event with a fire time at or before
// target, in deterministic (time, sequence) order, then advances the
// clock to target. Events scheduled by running events are drained too
// when they fall inside the window.
func (c *Clock) RunUntil(target time.Time) {
	for {
		c.mu.Lock()
		if len(c.events) == 0 || c.events[0].at.After(target) {
			if target.After(c.now) {
				c.now = target
			}
			c.mu.Unlock()
			return
		}
		ev := heap.Pop(&c.events).(*event)
		if ev.stopped {
			c.mu.Unlock()
			continue
		}
		if ev.at.After(c.now) {
			c.now = ev.at
		}
		fn := ev.fn
		ev.fn = nil
		c.mu.Unlock()
		fn()
	}
}

// RunFor drains d of virtual time.
func (c *Clock) RunFor(d time.Duration) { c.RunUntil(c.Now().Add(d)) }

// skew is one node's mutable clock offset from true (fabric) time. It
// models a machine whose wall clock is off — and can jump when the
// chaos schedule "steps" it — while timers still fire on the shared
// event heap (real interval timers are monotonic and don't jump with
// the wall clock).
type skew struct {
	off time.Duration
}

// skewClock is the vtime.Clock a skewed node sees: Now is offset by the
// node's skew, AfterFunc passes through to the shared deterministic
// heap. Duration measurements that span a skew jump (Since across a
// SetSkew) come out wrong by the jump — exactly the hazard the
// 2·ClockSkew lease margin must absorb.
type skewClock struct {
	base *Clock
	s    *skew
}

func (sc skewClock) Now() time.Time                  { return sc.base.Now().Add(sc.s.off) }
func (sc skewClock) Since(t time.Time) time.Duration { return sc.Now().Sub(t) }
func (sc skewClock) Sleep(d time.Duration)           { sc.base.Sleep(d) }
func (sc skewClock) AfterFunc(d time.Duration, f func()) vtime.Timer {
	return sc.base.AfterFunc(d, f)
}
