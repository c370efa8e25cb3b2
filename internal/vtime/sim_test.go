package vtime

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	s := NewSim(simEpoch)
	var woke time.Time
	s.Go(func() {
		s.Sleep(42 * time.Hour)
		woke = s.Now()
	})
	s.Wait()
	if want := simEpoch.Add(42 * time.Hour); !woke.Equal(want) {
		t.Fatalf("woke at %v, want %v", woke, want)
	}
}

func TestSimSleepZeroOrNegativeReturnsImmediately(t *testing.T) {
	s := NewSim(simEpoch)
	s.Go(func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
	})
	s.Wait()
	if got := s.Now(); !got.Equal(simEpoch) {
		t.Fatalf("time advanced to %v, want %v", got, simEpoch)
	}
}

func TestSimInterleavesActorsInTimestampOrder(t *testing.T) {
	s := NewSim(simEpoch)
	var (
		mu    sync.Mutex
		order []int
	)
	record := func(id int) {
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	for i, d := range []time.Duration{30, 10, 20} {
		i, d := i, d
		s.Go(func() {
			s.Sleep(d * time.Millisecond)
			record(i)
		})
	}
	s.Wait()
	want := []int{1, 2, 0}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got order %v, want %v", order, want)
		}
	}
}

func TestSimSameDeadlineFIFO(t *testing.T) {
	s := NewSim(simEpoch)
	var (
		mu    sync.Mutex
		order []int
	)
	// All timers fire at the same instant; FIFO by scheduling order.
	for i := 0; i < 8; i++ {
		i := i
		s.AfterFunc(time.Second, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Go(func() { s.Sleep(2 * time.Second) })
	s.Wait()
	if len(order) != 8 {
		t.Fatalf("fired %d timers, want 8", len(order))
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-deadline timers fired out of FIFO order: %v", order)
	}
}

func TestSimAfterFuncRunsAtDeadline(t *testing.T) {
	s := NewSim(simEpoch)
	var fired time.Time
	s.AfterFunc(3*time.Second, func() { fired = s.Now() })
	s.Go(func() { s.Sleep(10 * time.Second) })
	s.Wait()
	if want := simEpoch.Add(3 * time.Second); !fired.Equal(want) {
		t.Fatalf("timer fired at %v, want %v", fired, want)
	}
}

func TestSimTimerStop(t *testing.T) {
	s := NewSim(simEpoch)
	var fired atomic.Bool
	tm := s.AfterFunc(time.Second, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop before firing reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	s.Go(func() { s.Sleep(5 * time.Second) })
	s.Wait()
	if fired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

// The timer handle is the scheduler's own event: once it has fired, Stop
// reports false however often it is called, and cancels nothing.
func TestSimTimerStopAfterFire(t *testing.T) {
	s := NewSim(simEpoch)
	var fired atomic.Bool
	tm := s.AfterFunc(time.Second, func() { fired.Store(true) })
	s.Go(func() { s.Sleep(5 * time.Second) })
	s.Wait()
	if !fired.Load() {
		t.Fatal("timer did not fire")
	}
	for i := 0; i < 2; i++ {
		if tm.Stop() {
			t.Fatalf("Stop %d after firing reported true", i+1)
		}
	}
}

func TestSimGroupJoinWaitsForAllMembers(t *testing.T) {
	s := NewSim(simEpoch)
	var (
		done   atomic.Int32
		joined time.Time
	)
	s.Go(func() {
		g := s.NewGroup()
		for i := 1; i <= 5; i++ {
			i := i
			g.Go(func() {
				s.Sleep(time.Duration(i) * time.Second)
				done.Add(1)
			})
		}
		g.Join()
		joined = s.Now()
	})
	s.Wait()
	if done.Load() != 5 {
		t.Fatalf("%d members finished, want 5", done.Load())
	}
	if want := simEpoch.Add(5 * time.Second); !joined.Equal(want) {
		t.Fatalf("joined at %v, want %v", joined, want)
	}
}

func TestSimGroupJoinOnEmptyGroupReturns(t *testing.T) {
	s := NewSim(simEpoch)
	ok := false
	s.Go(func() {
		g := s.NewGroup()
		g.Join()
		ok = true
	})
	s.Wait()
	if !ok {
		t.Fatal("Join on empty group did not return")
	}
}

func TestSimNestedSpawn(t *testing.T) {
	s := NewSim(simEpoch)
	var leafTime time.Time
	s.Go(func() {
		s.Sleep(time.Second)
		s.Go(func() {
			s.Sleep(time.Second)
			leafTime = s.Now()
		})
	})
	s.Wait()
	if want := simEpoch.Add(2 * time.Second); !leafTime.Equal(want) {
		t.Fatalf("leaf ran at %v, want %v", leafTime, want)
	}
}

// mustPanic runs f and requires it to panic with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// A member that joins its own group waits for itself: nothing is left to
// run or fire, and Wait panics instead of hanging.
func TestSimDeadlockPanics(t *testing.T) {
	s := NewSim(simEpoch)
	s.Go(func() {
		g := s.NewGroup()
		g.Go(func() {
			s.Sleep(time.Second)
			g.Join()
		})
		g.Join()
	})
	mustPanic(t, "vtime: deadlock at 2026-01-01T00:00:01Z: 2 actor(s) parked", s.Wait)
}

func TestSimSleepOutsideAnActorPanics(t *testing.T) {
	s := NewSim(simEpoch)
	mustPanic(t, "vtime: Sleep outside an actor", func() { s.Sleep(time.Second) })
}

func TestSimJoinOutsideAnActorPanics(t *testing.T) {
	s := NewSim(simEpoch)
	g := s.NewGroup()
	g.Go(func() { s.Sleep(time.Second) })
	mustPanic(t, "vtime: Group.Join outside an actor", g.Join)
}

func TestSimWaitInsideAnActorPanics(t *testing.T) {
	s := NewSim(simEpoch)
	s.Go(func() { s.Wait() })
	mustPanic(t, "vtime: Wait inside an actor", s.Wait)
}

// TestSimRunUntil pins the stepping contract: every event due at or
// before t fires, those armed during the step included; the clock lands
// on t and an earlier t leaves it; an actor parked past t, even one no
// event stands before, resumes in a later step.
func TestSimRunUntil(t *testing.T) {
	s := NewSim(simEpoch)
	var log []string
	note := func(tag string) { log = append(log, tag+"@"+s.Since(simEpoch).String()) }
	at := func(d time.Duration) time.Time { return simEpoch.Add(d) }
	s.AfterFunc(time.Second, func() {
		note("due")
		s.AfterFunc(0, func() { note("armed") })
		s.AfterFunc(time.Second, func() { note("next") })
	})
	s.Go(func() {
		s.Sleep(1500 * time.Millisecond)
		note("woke")
	})
	s.RunUntil(at(time.Second))
	if want := []string{"due@1s", "armed@1s"}; !slices.Equal(log, want) {
		t.Fatalf("first step fired %v, want %v", log, want)
	}
	s.RunUntil(at(0))
	if got := s.Since(simEpoch); got != time.Second {
		t.Fatalf("a step to an earlier instant moved the clock to %v", got)
	}
	s.RunFor(time.Second)
	s.Go(func() {
		s.Sleep(time.Hour)
		note("hour")
	})
	s.RunFor(time.Second)
	if got := s.Since(simEpoch); got != 3*time.Second {
		t.Fatalf("clock at %v after stepping to 3s", got)
	}
	s.Wait()
	if want := []string{"due@1s", "armed@1s", "woke@1.5s", "next@2s", "hour@1h0m2s"}; !slices.Equal(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}

	inside := NewSim(simEpoch)
	inside.Go(func() { inside.RunFor(time.Second) })
	mustPanic(t, "vtime: RunUntil inside an actor", func() { inside.RunFor(0) })
}

// TestSimRunsOneActorAtATime pins the loop's order. Nothing here locks
// or is atomic: under the race detector, two actors running at once fail
// it too.
func TestSimRunsOneActorAtATime(t *testing.T) {
	t.Run("a started actor runs once its starter parks", func(t *testing.T) {
		s := NewSim(simEpoch)
		var log []string
		s.Go(func() {
			s.Go(func() { log = append(log, "started") })
			for i := 0; i < 100; i++ {
				runtime.Gosched()
			}
			log = append(log, "starter")
			s.Sleep(time.Second)
			log = append(log, "starter woke")
		})
		s.Wait()
		if want := []string{"starter", "started", "starter woke"}; !slices.Equal(log, want) {
			t.Fatalf("order %v, want %v", log, want)
		}
	})
	t.Run("same-instant starts run in Go order", func(t *testing.T) {
		s := NewSim(simEpoch)
		var order []int
		for i := 0; i < 4; i++ {
			s.Go(func() { order = append(order, i) })
		}
		s.Go(func() {
			g := s.NewGroup()
			for i := 4; i < 8; i++ {
				g.Go(func() { order = append(order, i) })
				s.Go(func() { order = append(order, 10+i) })
			}
			g.Join()
		})
		s.Wait()
		if want := []int{0, 1, 2, 3, 4, 14, 5, 15, 6, 16, 7, 17}; !slices.Equal(order, want) {
			t.Fatalf("order %v, want %v", order, want)
		}
	})
	t.Run("released joiners run before an event queued for the instant", func(t *testing.T) {
		s := NewSim(simEpoch)
		var log []string
		s.Go(func() {
			g := s.NewGroup()
			g.Go(func() {
				s.Sleep(time.Second)
				s.AfterFunc(0, func() { log = append(log, "timer") })
				log = append(log, "member")
			})
			for _, who := range []string{"joiner 1", "joiner 2"} {
				s.Go(func() {
					g.Join()
					log = append(log, who)
				})
			}
			g.Join()
			log = append(log, "parent")
			s.Sleep(time.Second) // alive while the timer fires
		})
		s.Wait()
		if want := []string{"member", "parent", "joiner 1", "joiner 2", "timer"}; !slices.Equal(log, want) {
			t.Fatalf("order %v, want %v", log, want)
		}
	})
	t.Run("a panic in an actor surfaces from Wait", func(t *testing.T) {
		s := NewSim(simEpoch)
		s.Go(func() {
			s.Sleep(time.Second)
			panic("boom in an actor")
		})
		mustPanic(t, "boom in an actor", s.Wait)
	})
}

func TestSimElapsedAndSince(t *testing.T) {
	s := NewSim(simEpoch)
	s.Go(func() {
		t0 := s.Now()
		s.Sleep(90 * time.Millisecond)
		if got := s.Since(t0); got != 90*time.Millisecond {
			t.Errorf("Since = %v, want 90ms", got)
		}
	})
	s.Wait()
}

func TestSimManyActorsStress(t *testing.T) {
	s := NewSim(simEpoch)
	const n = 200
	var total atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		s.Go(func() {
			for j := 0; j < 10; j++ {
				s.Sleep(time.Duration(1+(i+j)%7) * time.Millisecond)
			}
			total.Add(1)
		})
	}
	s.Wait()
	if total.Load() != n {
		t.Fatalf("%d actors finished, want %d", total.Load(), n)
	}
}

func TestRealRuntimeBasics(t *testing.T) {
	var r RealRuntime
	t0 := r.Now()
	r.Sleep(time.Millisecond)
	if r.Since(t0) <= 0 {
		t.Fatal("real clock did not advance")
	}
	g := r.NewGroup()
	var ran atomic.Bool
	g.Go(func() { ran.Store(true) })
	g.Join()
	if !ran.Load() {
		t.Fatal("group member did not run")
	}
	done := make(chan struct{})
	tm := r.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire reported true")
	}
}

// A negative delay is a zero delay, as for time.AfterFunc: the callback
// fires at the current instant, after the events already queued for it,
// and virtual time never steps back to now + d.
func TestSimAfterFuncNegativeDelayFiresNow(t *testing.T) {
	s := NewSim(simEpoch)
	var (
		mu    sync.Mutex
		order []string
		last  = simEpoch
	)
	observe := func(tag string) {
		mu.Lock()
		defer mu.Unlock()
		now := s.Now()
		if now.Before(last) {
			t.Errorf("%s saw the clock step back from %v to %v", tag, last, now)
		}
		last = now
		order = append(order, tag)
	}
	s.Go(func() {
		s.Sleep(time.Second)
		armedAt := s.Now()
		at := func(tag string) func() {
			return func() {
				observe(tag)
				if now := s.Now(); !now.Equal(armedAt) {
					t.Errorf("%s fired at %v, want the arming instant %v", tag, now, armedAt)
				}
			}
		}
		s.AfterFunc(0, at("queued"))
		s.AfterFunc(-10*time.Second, at("negative"))
		s.AfterFunc(time.Hour, at("reset")).Reset(-time.Minute)
		s.Sleep(time.Second)
		observe("sleeper")
		if got := s.Since(armedAt); got != time.Second {
			t.Errorf("Since across the negative arms = %v, want 1s", got)
		}
	})
	s.Wait()
	if want := []string{"queued", "negative", "reset", "sleeper"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSimWaitLeavesNoGoroutines: the workers actors run on are released
// when the loop returns, whatever is still queued: when Wait's last actor
// finishes, and when a RunUntil step ends.
func TestSimWaitLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		stepped := NewSim(simEpoch)
		stepped.AfterFunc(time.Hour, func() { t.Error("a timer fired past the step") })
		stepped.AfterFunc(time.Second, func() { stepped.Sleep(time.Second) })
		stepped.Go(func() { stepped.Sleep(time.Second) })
		stepped.RunUntil(simEpoch.Add(2 * time.Second))

		s := NewSim(simEpoch)
		s.AfterFunc(time.Hour, func() { t.Error("a timer fired after the last actor finished") })
		s.Go(func() {
			g := s.NewGroup()
			for j := 1; j <= 3; j++ {
				j := j
				g.Go(func() { s.Sleep(time.Duration(j) * time.Second) })
			}
			s.AfterFunc(time.Second, func() { s.Sleep(time.Second) })
			g.Join()
		})
		s.Wait()
	}
	// Released workers exit on their own time.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before 100 Sims, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimReusedAfterWait: a Sim whose actors have all finished, and whose
// workers are therefore gone, starts actors and fires timers again.
func TestSimReusedAfterWait(t *testing.T) {
	s := NewSim(simEpoch)
	s.Go(func() { s.Sleep(time.Second) })
	s.Wait()
	var fired time.Time
	s.Go(func() {
		s.AfterFunc(time.Second, func() { fired = s.Now() })
		s.Sleep(2 * time.Second)
	})
	s.Wait()
	if want := simEpoch.Add(2 * time.Second); !fired.Equal(want) {
		t.Fatalf("timer of the second run fired at %v, want %v", fired, want)
	}
}

// TestTimerRearmFireAllocatesNothing pins what a scheduled callback
// costs once its timer exists: the arm is a heap slot, the fire a
// hand-off to a parked worker. (Stop + AfterFunc per arm, the only way to
// re-arm before Reset, read 4 here: the event, the caller's closure and
// the go statement's two.)
func TestTimerRearmFireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := NewSim(simEpoch)
	fires := 0
	var allocs float64
	s.Go(func() {
		tm := s.AfterFunc(time.Hour, func() { fires++ })
		allocs = testing.AllocsPerRun(200, func() {
			tm.Reset(time.Millisecond)
			s.Sleep(2 * time.Millisecond) // parks: the timer is due first
		})
	})
	s.Wait()
	if fires != 201 {
		t.Fatalf("timer fired %d times in 201 cycles", fires)
	}
	if allocs != 0 {
		t.Errorf("a Reset → fire → callback cycle allocates %v objects, want 0", allocs)
	}
}

// TestGroupMemberStartAllocs pins a fan-out: three members started and
// joined cost the group and its waiter list — none per member, and none
// for the joiner, which parks as itself.
func TestGroupMemberStartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := NewSim(simEpoch)
	member := func() { s.Sleep(time.Millisecond) } // still asleep when the parent joins
	var allocs float64
	s.Go(func() {
		allocs = testing.AllocsPerRun(200, func() {
			g := s.NewGroup()
			for i := 0; i < 3; i++ {
				g.Go(member)
			}
			g.Join()
		})
	})
	s.Wait()
	t.Logf("Group.Go × 3 + Join: %v allocs", allocs)
	if allocs != 2 {
		t.Errorf("Group.Go × 3 + Join allocates %v objects, want 2", allocs)
	}
}
