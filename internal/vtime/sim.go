// iter.Pull needs Go 1.23. The constraint raises this file's language
// version above the module's go line, which stays at 1.22 because
// bench/go.mod pins it; go.mod's toolchain line makes an older go
// command switch to a 1.23 toolchain.

//go:build go1.23

package vtime

import (
	"fmt"
	"iter"
	"math"
	"time"

	"conprobe/internal/minheap"
)

// Sim is a discrete-event scheduler implementing Clock with virtual time.
//
// Logical processes ("actors") are started with Go, through a Group, or by
// a timer's fire. Each runs as a coroutine, and one loop — run by the
// caller of Wait or RunUntil — resumes them one at a time. Whenever no
// actor is runnable, the loop advances the virtual clock to the earliest
// pending event and resumes its owner. A Sim therefore executes
// arbitrarily long simulated timelines in wall-clock time proportional
// only to the work performed, and one program interleaves its actors the
// same way on every run.
//
// The contract:
//   - One actor runs at a time, until it parks in Sleep or Group.Join or
//     returns. Actors made runnable at an instant (started, or released
//     by a Join) run in that order, before any event queued for it.
//   - A Sim's methods are called only from its own actors, or from
//     outside the loop. Sleep and Group.Join panic outside an actor, and
//     Wait and RunUntil inside one.
//   - An actor's panic surfaces from the loop's caller.
//
// Actors must not block on ordinary channels or on locks held across
// waits; all inter-actor waiting goes through Sleep, AfterFunc and
// Group.Join. Violating this stalls the loop.
type Sim struct {
	epoch time.Time // the virtual clock's start
	at    int64     // now, in nanoseconds since epoch: the queue's key
	until int64     // the key the running loop stops after
	seq   uint64
	queue []queued // min-heap by (at, seq)
	ready []*actor // runnable at now, in the order they became so
	alive int      // actors started and not yet finished
	cur   *actor   // the running actor; nil outside one
	idle  []*actor // finished workers, the latest to finish last
}

var _ Runtime = (*Sim)(nil)

// NewSim returns a Sim whose virtual clock starts at start.
func NewSim(start time.Time) *Sim {
	return &Sim{epoch: start}
}

// Runtime is the execution environment shared by simulated and live runs:
// a clock plus the ability to start concurrent actors and wait for them.
type Runtime interface {
	Clock

	// Go starts f as a new concurrent actor.
	Go(f func())

	// NewGroup returns a Group for starting actors and joining on their
	// completion.
	NewGroup() Group
}

// Group tracks a set of actors so a parent can wait for all of them.
type Group interface {
	// Go starts f as an actor belonging to the group.
	Go(f func())

	// Join blocks the caller until every actor started via Go has
	// returned. Join may be called once actors have been started, and
	// again once they have returned.
	Join()
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.epoch.Add(time.Duration(s.at)) }

// Since returns the virtual time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep parks the calling actor for d of virtual time.
func (s *Sim) Sleep(d time.Duration) {
	a := s.running("Sleep")
	if d <= 0 {
		return
	}
	at := s.after(d)
	// Fast path: no other actor is runnable, no pending event is due at
	// or before the wake-up and the loop runs that far, so advancing the
	// clock here is exactly what parking and being resumed would do,
	// minus two switches. A strict < keeps same-instant events firing in
	// FIFO order.
	if len(s.ready) == 0 && (len(s.queue) == 0 || at < s.queue[0].at) && at <= s.until {
		s.at = at
		return
	}
	s.push(at, &a.wake)
	a.yield(struct{}{})
}

// AfterFunc schedules f to run as a new actor after d of virtual time.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	ev := &event{s: s, fn: f}
	ev.Reset(d)
	return ev
}

// Go starts f as a new actor. It may be called before Wait or RunUntil
// as well as from inside running actors; f runs once the caller parks or
// returns.
func (s *Sim) Go(f func()) { s.start(f, nil) }

// NewGroup returns a scheduler-aware Group.
func (s *Sim) NewGroup() Group { return &simGroup{s: s} }

// Wait runs the actors until every one has finished. Its caller is the
// loop that resumes them, so it must not be an actor of s.
func (s *Sim) Wait() { s.loop("Wait", math.MaxInt64, true) }

// RunUntil steps the Sim to t: it resumes every ready actor and fires
// every event due at or before t, those armed meanwhile included, then
// sets the clock to t unless it is already later. Actors parked past t
// resume in a later call. Like Wait, its caller is the loop.
func (s *Sim) RunUntil(t time.Time) {
	until := int64(t.Sub(s.epoch))
	s.loop("RunUntil", until, false)
	s.at = max(s.at, until)
}

// RunFor steps the Sim d of virtual time past now.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.Now().Add(d)) }

// loop runs actors one at a time: the ready ones first, then the owners
// of the queue's events due at or before until. Under Wait it runs until
// no actor is left, and a parked actor with nothing queued to wake it is
// a deadlock; stepping, it returns once nothing more is due.
func (s *Sim) loop(call string, until int64, wait bool) {
	if s.cur != nil {
		panic("vtime: " + call + " inside an actor")
	}
	defer s.release()
	s.until = until
	for s.alive > 0 || !wait {
		var a *actor
		if len(s.ready) > 0 {
			a = s.ready[0]
			s.ready = s.ready[:copy(s.ready, s.ready[1:])]
		} else if ev := s.head(); ev == nil || s.queue[0].at > until {
			if !wait {
				return
			}
			panic(fmt.Sprintf(
				"vtime: deadlock at %s: %d actor(s) parked with no pending events",
				s.Now().Format(time.RFC3339Nano), s.alive))
		} else if a = s.pop(); a == nil {
			a = s.worker(ev.fn, nil) // a timer callback: a transient actor
		}
		s.cur = a
		a.next()
	}
}

// release ends the loop: no actor runs until it is entered again, so the
// idle workers are stopped and the loop leaves no goroutine behind.
func (s *Sim) release() {
	s.cur = nil
	for _, a := range s.idle {
		a.stop()
	}
	s.idle = nil
}

// running returns the actor running now, or panics naming call.
func (s *Sim) running(call string) *actor {
	if s.cur == nil {
		panic("vtime: " + call + " outside an actor")
	}
	return s.cur
}

// after returns the queue key d ≥ 0 from now, clamped at MaxInt64
// nanoseconds since the epoch (about 292 years).
func (s *Sim) after(d time.Duration) int64 {
	if at := s.at + int64(d); at >= s.at {
		return at
	}
	return math.MaxInt64
}

// push queues ev's current generation to fire at `at`, stamping the FIFO
// sequence number.
func (s *Sim) push(at int64, ev *event) {
	s.queue = minheap.Push(s.queue, queued{at: at, seq: s.seq, ev: ev, gen: ev.gen}, (*queued).before)
	s.seq++
}

// head drops the stale slots at the front of the queue and returns the
// live event there, nil when none is queued.
func (s *Sim) head() *event {
	for len(s.queue) > 0 {
		if q := s.queue[0]; q.gen == q.ev.gen {
			return q.ev
		}
		s.queue, _ = minheap.Pop(s.queue, (*queued).before)
	}
	return nil
}

// pop fires the live head head returned: it advances the clock to it and
// returns the sleeper to resume, or nil for a timer callback, which it
// counts as started.
func (s *Sim) pop() *actor {
	var q queued
	s.queue, q = minheap.Pop(s.queue, (*queued).before)
	s.at = q.at
	if q.ev.a == nil {
		q.ev.pending = false
		s.alive++
	}
	return q.ev.a
}

// start makes f a runnable actor, a member of g unless g is nil.
func (s *Sim) start(f func(), g *simGroup) {
	s.alive++
	if g != nil {
		g.count++
	}
	s.ready = append(s.ready, s.worker(f, g))
}

// worker loads f, a member of g unless g is nil, on the worker idled
// last, or on a new one when none is idle.
func (s *Sim) worker(f func(), g *simGroup) *actor {
	var a *actor
	if n := len(s.idle); n > 0 {
		a, s.idle = s.idle[n-1], s.idle[:n-1]
	} else {
		a = &actor{s: s}
		a.wake.a = a
		a.next, a.stop = iter.Pull(a.run)
	}
	a.f, a.g = f, g
	return a
}

// actor is a worker coroutine: it runs the function it is loaded with,
// parks in the idle list, and is loaded again by Go, a Group or a fire.
type actor struct {
	s     *Sim
	f     func()
	g     *simGroup
	wake  event // what Sleep queues; wake.a is the actor itself
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
}

// run is the worker's coroutine body: one actor per turn of the loop,
// until release stops it.
func (a *actor) run(yield func(struct{}) bool) {
	a.yield = yield
	s := a.s
	for {
		a.f()
		if g := a.g; g != nil {
			if g.count--; g.count == 0 {
				s.ready = append(s.ready, g.waiters...)
				g.waiters = g.waiters[:0]
			}
		}
		a.f, a.g = nil, nil
		s.alive--
		s.idle = append(s.idle, a)
		if !yield(struct{}{}) {
			return
		}
	}
}

// simGroup is the scheduler-aware Group implementation.
type simGroup struct {
	s       *Sim
	count   int      // live members
	waiters []*actor // joined, in Join order
}

func (g *simGroup) Go(f func()) { g.s.start(f, g) }

func (g *simGroup) Join() {
	a := g.s.running("Group.Join")
	if g.count == 0 {
		return
	}
	g.waiters = append(g.waiters, a)
	a.yield(struct{}{})
}

// event is what a queue slot fires: a parked Sleep (a != nil, embedded in
// its actor) or a timer callback (fn != nil). A timer event is the Timer
// AfterFunc returns, one object for the timer's life: every arm queues a
// slot stamped with gen, and Stop and Reset kill it where it lies by
// moving on.
type event struct {
	s       *Sim // set on timer events only; Reset pushes through it
	a       *actor
	fn      func()
	gen     uint64
	pending bool // a slot of this generation is queued and has not fired
}

// queued is one slot of the event heap: ev is due at `at` (nanoseconds
// since the Sim's epoch), after every slot of the same instant queued
// before it, while ev.gen is still gen.
type queued struct {
	at  int64
	seq uint64
	ev  *event
	gen uint64
}

func (q *queued) before(o *queued) bool {
	return q.at < o.at || q.at == o.at && q.seq < o.seq
}

// Stop cancels a timer event that has not fired.
func (ev *event) Stop() bool {
	was := ev.pending
	ev.pending = false
	ev.gen++
	return was
}

// Reset re-arms a timer event to fire d from now, whether or not it has
// fired. The new slot takes its sequence number here: among the events of
// an instant it fires where a timer made by this call would. A negative d
// is zero, as for time.AfterFunc: virtual time never steps back.
func (ev *event) Reset(d time.Duration) bool {
	was := ev.pending
	ev.pending = true
	ev.gen++
	ev.s.push(ev.s.after(max(d, 0)), ev)
	return was
}
