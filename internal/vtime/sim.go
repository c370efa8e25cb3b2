package vtime

import (
	"fmt"
	"sync"
	"time"

	"conprobe/internal/minheap"
)

// Sim is a discrete-event scheduler implementing Clock with virtual time.
//
// Logical processes are started with Go (or via a Group). Each runs on its
// own goroutine. Whenever every live actor is parked — sleeping, joined on
// a Group, or waiting at a Gate — the scheduler advances the virtual clock
// to the earliest pending event and wakes its owner. A Sim therefore
// executes arbitrarily long simulated timelines in wall-clock time
// proportional only to the work performed.
//
// Actors must not block on ordinary channels or locks held across waits;
// all inter-actor waiting must go through Sleep, AfterFunc, Group.Join or
// Gate.Wait. Violating this stalls virtual time and is reported as a
// deadlock.
type Sim struct {
	mu       sync.Mutex
	waitCond *sync.Cond // signalled when alive reaches zero

	now      time.Time
	seq      uint64
	queue    []queued   // min-heap by (at, seq)
	runnable int        // actors currently executing
	alive    int        // actors started and not yet finished
	idle     []chan job // parked workers, the latest to park last
}

var _ Runtime = (*Sim)(nil)

// NewSim returns a Sim whose virtual clock starts at start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.waitCond = sync.NewCond(&s.mu)
	return s
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
	// returned. Join may be called once actors have been started.
	Join()
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since returns the virtual time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration {
	return s.Now().Sub(t)
}

// sleepEventPool recycles the event (and its embedded wake channel) a
// Sleep call parks on. Sleep events cannot be cancelled and their only
// reference after firing is the sleeping goroutine itself, so it alone
// returns them to the pool.
var sleepEventPool = sync.Pool{
	New: func() any { return &event{wake: make(chan struct{}, 1)} },
}

// Sleep parks the calling actor for d of virtual time.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	at := s.now.Add(d)
	// Fast path: the caller is the only runnable actor and no pending
	// event is due before its wake-up, so advancing the clock here is
	// exactly what parking and re-waking would do — minus the event
	// allocation, the heap traffic, and two goroutine context switches.
	// A strict Before keeps same-instant events firing in FIFO order.
	if s.runnable == 1 && (len(s.queue) == 0 || at.Before(s.queue[0].at)) {
		s.now = at
		s.mu.Unlock()
		return
	}
	ev := sleepEventPool.Get().(*event)
	s.push(at, ev)
	s.parkLocked()
	s.mu.Unlock()
	<-ev.wake
	sleepEventPool.Put(ev)
}

// AfterFunc schedules f to run as a new actor after d of virtual time.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	ev := &event{s: s, fn: f}
	ev.Reset(d)
	return ev
}

// Go starts f as a new actor. It may be called before Run as well as from
// inside running actors.
func (s *Sim) Go(f func()) {
	s.mu.Lock()
	s.startLocked(f, nil)
	s.mu.Unlock()
}

// NewGroup returns a scheduler-aware Group.
func (s *Sim) NewGroup() Group { return &simGroup{s: s} }

// Wait blocks the caller (which must not be an actor) until every actor
// has finished.
func (s *Sim) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.alive > 0 {
		s.waitCond.Wait()
	}
}

// Elapsed returns the virtual time elapsed since t0.
func (s *Sim) Elapsed(t0 time.Time) time.Duration {
	return s.Now().Sub(t0)
}

// push queues ev's current generation to fire at `at`, stamping the FIFO
// sequence number. Caller holds mu.
func (s *Sim) push(at time.Time, ev *event) {
	s.queue = minheap.Push(s.queue, queued{at: at, seq: s.seq, ev: ev, gen: ev.gen}, (*queued).before)
	s.seq++
}

// parkLocked marks the calling actor as no longer runnable, advancing
// virtual time if it was the last one. Caller holds mu.
func (s *Sim) parkLocked() {
	s.runnable--
	if s.runnable == 0 {
		s.advanceLocked()
	}
}

// advanceLocked jumps virtual time to the earliest pending event and wakes
// or starts its owner. Caller holds mu, runnable is zero.
func (s *Sim) advanceLocked() {
	for len(s.queue) > 0 {
		var q queued
		s.queue, q = minheap.Pop(s.queue, (*queued).before)
		ev := q.ev
		if q.gen != ev.gen {
			continue // stopped or re-armed since it was queued
		}
		s.now = q.at
		if ev.wake != nil {
			s.runnable++
			// Sleep events carry a reusable buffered channel; a send (not a
			// close) wakes the sleeper so the event can go back to its pool.
			ev.wake <- struct{}{}
			return
		}
		// Timer callback: a transient actor, never run inline (it may Sleep).
		ev.pending = false
		s.startLocked(ev.fn, nil)
		return
	}
	if s.alive > 0 {
		panic(fmt.Sprintf(
			"vtime: deadlock at %s: %d actor(s) parked with no pending events",
			s.now.Format(time.RFC3339Nano), s.alive))
	}
}

// job is one actor handed to a worker: f, a member of g unless g is nil.
type job struct {
	f func()
	g *simGroup
}

// startLocked starts f as a new actor — from Go, a Group or a timer fire
// alike — on a parked worker goroutine, or a new one when none is parked.
// A worker is the 1-buffered channel it receives on: the hand-off never
// blocks. Caller holds mu.
func (s *Sim) startLocked(f func(), g *simGroup) {
	s.alive++
	s.runnable++
	if g != nil {
		g.count++
	}
	var w chan job
	if n := len(s.idle); n > 0 {
		w, s.idle = s.idle[n-1], s.idle[:n-1]
	} else {
		w = make(chan job, 1)
		go s.work(w)
	}
	w <- job{f, g}
}

// work runs the actors handed to one worker until finishLocked releases it.
func (s *Sim) work(jobs chan job) {
	for j := range jobs {
		j.f()
		s.mu.Lock()
		// Parked before the finish step, so the actor that step may start
		// (a due timer's callback) runs on this goroutine.
		s.idle = append(s.idle, jobs)
		s.finishLocked(j.g)
		s.mu.Unlock()
	}
}

// finishLocked records the termination of an actor, a member of g unless g
// is nil, in one lock acquisition with the group bookkeeping, so waiters
// wake before time advances past their wake-up. Caller holds mu.
func (s *Sim) finishLocked(g *simGroup) {
	if g != nil {
		g.count--
		if g.count == 0 {
			for _, ch := range g.waiters {
				s.runnable++
				close(ch)
			}
			g.waiters = nil
		}
	}
	s.runnable--
	s.alive--
	if s.alive == 0 {
		// Nothing is left that could start an actor: release the parked
		// workers, so Wait leaves no goroutine behind.
		for _, w := range s.idle {
			close(w)
		}
		s.idle = nil
		s.waitCond.Broadcast()
		return
	}
	if s.runnable == 0 {
		s.advanceLocked()
	}
}

// simGroup is the scheduler-aware Group implementation.
type simGroup struct {
	s       *Sim
	count   int // live members; guarded by s.mu
	waiters []chan struct{}
}

func (g *simGroup) Go(f func()) {
	g.s.mu.Lock()
	g.s.startLocked(f, g)
	g.s.mu.Unlock()
}

func (g *simGroup) Join() {
	s := g.s
	s.mu.Lock()
	if g.count == 0 {
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	s.parkLocked()
	s.mu.Unlock()
	<-ch
}

// event is what a queue slot fires: a parked Sleep (wake != nil, pooled)
// or a timer callback (fn != nil). A timer event is the Timer AfterFunc
// returns, one object for the timer's life: every arm queues a slot
// stamped with gen, and Stop and Reset kill it where it lies by moving on.
type event struct {
	s       *Sim // set on timer events only; Stop and Reset lock through it
	wake    chan struct{}
	fn      func()
	gen     uint64
	pending bool // a slot of this generation is queued and has not fired
}

// queued is one slot of the event heap: ev is due at `at`, after every
// slot of the same instant queued before it, while ev.gen is still gen.
type queued struct {
	at  time.Time
	seq uint64
	ev  *event
	gen uint64
}

func (q *queued) before(o *queued) bool {
	if !q.at.Equal(o.at) {
		return q.at.Before(o.at)
	}
	return q.seq < o.seq
}

// Stop cancels a timer event that has not fired.
func (ev *event) Stop() bool {
	ev.s.mu.Lock()
	defer ev.s.mu.Unlock()
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
	if d < 0 {
		d = 0
	}
	s := ev.s
	s.mu.Lock()
	defer s.mu.Unlock()
	was := ev.pending
	ev.pending = true
	ev.gen++
	s.push(s.now.Add(d), ev)
	return was
}
