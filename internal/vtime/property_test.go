package vtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestSimWakeOrderProperty: actors sleeping arbitrary durations must be
// woken in non-decreasing deadline order, regardless of spawn order.
func TestSimWakeOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		s := NewSim(simEpoch)
		var (
			mu    sync.Mutex
			wakes []time.Duration
		)
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			s.Go(func() {
				s.Sleep(d)
				mu.Lock()
				wakes = append(wakes, s.Now().Sub(simEpoch))
				mu.Unlock()
			})
		}
		s.Wait()
		if len(wakes) != len(raw) {
			return false
		}
		for i := 1; i < len(wakes); i++ {
			if wakes[i] < wakes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSimNestedGroupsProperty: groups of groups join in dependency
// order and total virtual time equals the critical path.
func TestSimNestedGroups(t *testing.T) {
	s := NewSim(simEpoch)
	var finished time.Time
	s.Go(func() {
		outer := s.NewGroup()
		for i := 1; i <= 3; i++ {
			i := i
			outer.Go(func() {
				inner := s.NewGroup()
				for j := 1; j <= 3; j++ {
					j := j
					inner.Go(func() {
						s.Sleep(time.Duration(i*j) * time.Second)
					})
				}
				inner.Join()
			})
		}
		outer.Join()
		finished = s.Now()
	})
	s.Wait()
	// Critical path: i=3, j=3 -> 9s.
	if want := simEpoch.Add(9 * time.Second); !finished.Equal(want) {
		t.Fatalf("finished at %v, want %v", finished, want)
	}
}

// TestSimTimersInterleaveWithActors: AfterFunc callbacks observe a
// consistent virtual clock relative to sleeping actors.
func TestSimTimersInterleaveWithActors(t *testing.T) {
	s := NewSim(simEpoch)
	var (
		mu     sync.Mutex
		events []string
	)
	log := func(tag string) {
		mu.Lock()
		events = append(events, tag)
		mu.Unlock()
	}
	s.AfterFunc(1*time.Second, func() { log("timer1") })
	s.AfterFunc(3*time.Second, func() { log("timer3") })
	s.Go(func() {
		s.Sleep(2 * time.Second)
		log("actor2")
		s.Sleep(2 * time.Second)
		log("actor4")
	})
	s.Wait()
	want := []string{"timer1", "actor2", "timer3", "actor4"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestRealRuntimeSinceAndTimerStop(t *testing.T) {
	var r RealRuntime
	tm := r.AfterFunc(time.Hour, func() { t.Error("should not fire") })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	t0 := r.Now()
	if r.Since(t0) < 0 {
		t.Fatal("negative Since")
	}
}

// schedRec is one line of a scheduler program's log. Timer callbacks are
// the program's only actors besides its root, and an actor starts only
// when every other one is parked, so the program runs one step at a time
// and the log's order is the order the scheduler saw.
type schedRec struct {
	kind string // "arm" (AfterFunc or Reset), "stop", "sleep", "woke", "fire"
	who  int    // timer index, or the sleeping actor for sleep/woke
	now  time.Duration
	d    time.Duration
	was  bool // what Stop or Reset returned
}

// checkAgainstModel replays a log against the reference model: the live
// arms and sleeps, of which the next to happen is the least by (due, arm
// sequence) — the sequence being the position in the log.
func checkAgainstModel(log []schedRec) error {
	type pending struct {
		due  time.Duration
		seq  int
		who  int
		wake bool
	}
	var live []pending
	for seq, r := range log {
		if seq > 0 && r.now < log[seq-1].now {
			return fmt.Errorf("step %d: clock stepped back from %v to %v", seq, log[seq-1].now, r.now)
		}
		switch r.kind {
		case "arm", "stop":
			i := slices.IndexFunc(live, func(p pending) bool { return !p.wake && p.who == r.who })
			if r.was != (i >= 0) {
				return fmt.Errorf("step %d: %s of timer %d returned %v, model says pending=%v", seq, r.kind, r.who, r.was, i >= 0)
			}
			if i >= 0 {
				live = slices.Delete(live, i, i+1)
			}
			if r.kind == "arm" {
				live = append(live, pending{due: r.now + max(r.d, 0), seq: seq, who: r.who})
			}
		case "sleep":
			live = append(live, pending{due: r.now + r.d, seq: seq, who: r.who, wake: true})
		default:
			sort.Slice(live, func(i, j int) bool {
				if live[i].due != live[j].due {
					return live[i].due < live[j].due
				}
				return live[i].seq < live[j].seq
			})
			got := pending{due: r.now, who: r.who, wake: r.kind == "woke"}
			if len(live) == 0 {
				return fmt.Errorf("step %d: %+v happened with nothing pending", seq, got)
			}
			if want := live[0]; want.due != got.due || want.who != got.who || want.wake != got.wake {
				return fmt.Errorf("step %d: %+v happened, model expects %+v", seq, got, want)
			}
			live = live[1:]
		}
	}
	return nil
}

// TestSimTimersMatchReferenceModel runs random programs of AfterFunc,
// Reset (earlier, later, to the same instant, after the fire, from inside
// the timer's own callback, with a negative delay), Stop and Sleep over 1–4
// actors — each a timer callback that sleeps — and requires every fire and
// wake-up to happen in the model's order, at the model's instant, and
// every Stop and Reset to return what the model says. Each program runs
// twice: driven by Wait, and stepped by RunFor in random 0–3 ms slices.
func TestSimTimersMatchReferenceModel(t *testing.T) {
	delays := []time.Duration{-5, 0, 0, 1, 1, 2, 3, 5, 8, 13}
	for run := int64(1); run <= 600; run++ {
		seed, stepped := (run+1)/2, run%2 == 0
		rng := rand.New(rand.NewSource(seed))
		s := NewSim(simEpoch)
		var (
			mu     sync.Mutex // the program is sequential; this is for the race detector
			log    []schedRec
			timers []Timer
		)
		delay := func() time.Duration { return delays[rng.Intn(len(delays))] * time.Millisecond }
		record := func(kind string, who int, d time.Duration, was bool) {
			log = append(log, schedRec{kind, who, s.Now().Sub(simEpoch), d, was})
		}
		// arm re-arms timer i, or creates it: script is what its callback
		// does after recording the fire.
		arm := func(i int, d time.Duration, script func(i int)) {
			if i < len(timers) {
				record("arm", i, d, timers[i].Reset(d))
				return
			}
			timers = append(timers, s.AfterFunc(d, func() {
				mu.Lock()
				defer mu.Unlock()
				record("fire", i, 0, false)
				script(i)
			}))
			record("arm", i, d, false)
		}
		sleep := func(who int, d time.Duration) {
			if d <= 0 {
				return
			}
			record("sleep", who, d, false)
			mu.Unlock()
			s.Sleep(d)
			mu.Lock()
			record("woke", who, 0, false)
		}
		// The log's length bounds the program: zero-delay re-arms could
		// otherwise chain forever at one instant.
		rearmSelf := func(i int) { // a plain timer: sometimes re-arms itself
			if rng.Intn(3) == 0 && len(log) < 1000 {
				arm(i, delay(), nil)
			}
		}
		actor := func(self int) {
			for step := 0; step < 12 && len(log) < 1000; step++ {
				switch i := rng.Intn(len(timers) + 1); rng.Intn(4) {
				case 0:
					sleep(self, delay())
				case 1:
					if i < len(timers) {
						record("stop", i, 0, timers[i].Stop())
					}
				default: // any timer, this actor's own included, or a new one
					arm(i, delay(), rearmSelf)
				}
			}
		}
		actors := 1 + rng.Intn(4)
		s.Go(func() {
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < actors; i++ {
				arm(i, delay(), actor)
			}
			sleep(-1, time.Second) // past every delay: all that is armed fires
		})
		if stepped {
			steps := rand.New(rand.NewSource(-seed))
			for s.alive > 0 {
				s.RunFor(time.Duration(steps.Intn(4)) * time.Millisecond)
			}
		} else {
			s.Wait()
		}
		if err := checkAgainstModel(log); err != nil {
			t.Fatalf("seed %d (stepped %t): %v", seed, stepped, err)
		}
	}
}
