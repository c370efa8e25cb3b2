// Package vtime provides the time abstraction used throughout conprobe.
//
// All components (agents, services, the network model, rate limiters) are
// written against the Clock interface. Two implementations exist:
//
//   - Real: thin wrappers around the standard time package, used when
//     probing a live service over HTTP.
//   - Sim: a discrete-event scheduler with virtual time, used by the
//     measurement campaigns and the benchmark harness so that a month-long
//     experiment executes in seconds of wall-clock time.
//
// The Sim scheduler runs each logical process ("actor") on its own
// goroutine. Virtual time only advances when every actor is parked in
// Sleep (or in a Gate); the scheduler then jumps to the earliest pending
// wake-up. Cross-actor blocking must therefore go through the primitives
// offered here (Sleep, AfterFunc timers, Gate); blocking on an ordinary
// channel from inside an actor would stall virtual time.
//
// A caller whose callback runs again and again keeps one Timer and
// re-arms it with Reset, which under Sim allocates nothing.
package vtime

import "time"

// Clock is the time source used by all conprobe components.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time

	// Sleep pauses the calling actor for d. A non-positive d returns
	// immediately.
	Sleep(d time.Duration)

	// AfterFunc schedules f to run after d elapses. f runs on its own
	// actor. The returned Timer can cancel the call before it fires.
	AfterFunc(d time.Duration, f func()) Timer

	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a handle to an AfterFunc call, pending or not.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before it fired.
	Stop() bool

	// Reset re-arms the timer to run its function d from now, as
	// time.Timer.Reset does after time.AfterFunc: a pending call is moved,
	// a fired or stopped timer armed again. It reports whether a call was
	// pending. A negative d is zero.
	Reset(d time.Duration) bool
}
