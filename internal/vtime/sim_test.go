package vtime

import (
	"runtime"
	"slices"
	"sort"
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

func TestSimDeadlockPanics(t *testing.T) {
	// White-box: advancing with live actors but an empty event queue is
	// the deadlock condition; it must panic rather than hang.
	s := NewSim(simEpoch)
	s.alive = 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic, got none")
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
}

func TestSimElapsedAndSince(t *testing.T) {
	s := NewSim(simEpoch)
	s.Go(func() {
		t0 := s.Now()
		s.Sleep(90 * time.Millisecond)
		if got := s.Since(t0); got != 90*time.Millisecond {
			t.Errorf("Since = %v, want 90ms", got)
		}
		if got := s.Elapsed(t0); got != 90*time.Millisecond {
			t.Errorf("Elapsed = %v, want 90ms", got)
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
// when the last actor finishes, whatever is still queued.
func TestSimWaitLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
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
// joined cost the group, the joiner's channel and the waiter list — none
// per member.
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
	if allocs != 3 {
		t.Errorf("Group.Go × 3 + Join allocates %v objects, want 3", allocs)
	}
}
