package vtime

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
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
	queue    eventQueue
	runnable int // actors currently executing
	alive    int // actors started and not yet finished
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
	if s.runnable == 1 && (s.queue.Len() == 0 || at.Before(s.queue[0].at)) {
		s.now = at
		s.mu.Unlock()
		return
	}
	ev := sleepEventPool.Get().(*event)
	ev.at = at
	ev.cancelled = false
	ev.fired = false
	s.push(ev)
	s.parkLocked()
	s.mu.Unlock()
	<-ev.wake
	sleepEventPool.Put(ev)
}

// AfterFunc schedules f to run as a new actor after d of virtual time.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &event{s: s, at: s.now.Add(d), fn: f}
	s.push(ev)
	return ev
}

// Go starts f as a new actor. It may be called before Run as well as from
// inside running actors.
func (s *Sim) Go(f func()) {
	s.mu.Lock()
	s.alive++
	s.runnable++
	s.mu.Unlock()
	go func() {
		f()
		s.finishActor()
	}()
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

// push adds ev to the queue, stamping its FIFO sequence number.
// Caller holds mu.
func (s *Sim) push(ev *event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.queue, ev)
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
	for s.queue.Len() > 0 {
		ev, ok := heap.Pop(&s.queue).(*event)
		if !ok || ev.cancelled {
			continue
		}
		ev.fired = true
		s.now = ev.at
		if ev.wake != nil {
			s.runnable++
			// Sleep events carry a reusable buffered channel; a send (not a
			// close) wakes the sleeper so the event can go back to its pool.
			ev.wake <- struct{}{}
			return
		}
		// Timer callback: runs as a transient actor.
		s.alive++
		s.runnable++
		go func(f func()) {
			f()
			s.finishActor()
		}(ev.fn)
		return
	}
	if s.alive > 0 {
		panic(fmt.Sprintf(
			"vtime: deadlock at %s: %d actor(s) parked with no pending events",
			s.now.Format(time.RFC3339Nano), s.alive))
	}
}

// finishActor records the termination of an actor.
func (s *Sim) finishActor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runnable--
	s.alive--
	if s.alive == 0 {
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
	s := g.s
	s.mu.Lock()
	g.count++
	s.alive++
	s.runnable++
	s.mu.Unlock()
	go func() {
		f()
		g.finishMember()
	}()
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

// finishMember is finishActor plus group bookkeeping, done under one lock
// acquisition so waiters wake before time advances past their wake-up.
func (g *simGroup) finishMember() {
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	g.count--
	if g.count == 0 {
		for _, ch := range g.waiters {
			s.runnable++
			close(ch)
		}
		g.waiters = nil
	}
	s.runnable--
	s.alive--
	if s.alive == 0 {
		s.waitCond.Broadcast()
		return
	}
	if s.runnable == 0 {
		s.advanceLocked()
	}
}

// event is a pending wake-up (wake != nil) or timer callback (fn != nil).
// A timer event is the Timer AfterFunc returns: one object per timer.
type event struct {
	s         *Sim // set on timer events only; Stop locks through it
	at        time.Time
	seq       uint64
	wake      chan struct{}
	fn        func()
	cancelled bool
	fired     bool
}

// Stop cancels a timer event that has not fired.
func (ev *event) Stop() bool {
	ev.s.mu.Lock()
	defer ev.s.mu.Unlock()
	if ev.fired || ev.cancelled {
		return false
	}
	ev.cancelled = true
	return true
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
