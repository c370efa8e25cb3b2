package faultinject

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// fakeClock is a single-goroutine vtime.Clock whose Sleep advances time
// instantly.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) vtime.Timer { panic("unused") }

func (c *fakeClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// memService is a minimal in-memory Service recording writes in order.
type memService struct {
	mu    sync.Mutex
	posts []service.Post
}

func (m *memService) Name() string { return "mem" }

func (m *memService) Write(from simnet.Site, p service.Post) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posts = append(m.posts, p)
	return nil
}

func (m *memService) Read(from simnet.Site, reader string) ([]service.Post, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]service.Post, len(m.posts))
	copy(out, m.posts)
	return out, nil
}

func (m *memService) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posts = nil
	return nil
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"rates", Config{WriteFailRate: 0.2, ReadFailRate: 0.1}, true},
		{"rate above one", Config{ReadFailRate: 1.5}, false},
		{"negative rate", Config{WriteFailRate: -0.1}, false},
		{"latency without duration", Config{LatencyRate: 0.5}, false},
		{"latency ok", Config{LatencyRate: 0.5, Latency: time.Second}, true},
		{"empty outage", Config{Outages: []Outage{{Start: time.Second, End: time.Second}}}, false},
		{"negative outage", Config{Outages: []Outage{{Start: -time.Second, End: time.Second}}}, false},
		{"outage ok", Config{Outages: []Outage{{Start: time.Second, End: 2 * time.Second}}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports Enabled")
	}
	in := New(&memService{}, newFakeClock(), Config{})
	for i := 0; i < 100; i++ {
		if err := in.Write(simnet.Oregon, service.Post{ID: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Read(simnet.Oregon, "r"); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.Stats(); got != (Stats{}) {
		t.Fatalf("zero config injected faults: %+v", got)
	}
}

func TestFailRatesRoughlyHold(t *testing.T) {
	in := New(&memService{}, newFakeClock(), Config{
		Seed:          7,
		WriteFailRate: 0.2,
		ReadFailRate:  0.1,
	})
	const n = 2000
	for i := 0; i < n; i++ {
		err := in.Write(simnet.Oregon, service.Post{ID: fmt.Sprintf("p%d", i)})
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("non-injected write error: %v", err)
		}
		_, err = in.Read(simnet.Oregon, "r")
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("non-injected read error: %v", err)
		}
	}
	st := in.Stats()
	if st.WriteFailures < n/10 || st.WriteFailures > 3*n/10 {
		t.Fatalf("write failures = %d over %d ops, want ~20%%", st.WriteFailures, n)
	}
	if st.ReadFailures < n/25 || st.ReadFailures > n/5 {
		t.Fatalf("read failures = %d over %d ops, want ~10%%", st.ReadFailures, n)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() ([]bool, Stats) {
		in := New(&memService{}, newFakeClock(), Config{
			Seed:             42,
			WriteFailRate:    0.3,
			ReadFailRate:     0.2,
			TruncateReadRate: 0.2,
		})
		var outcomes []bool
		for i := 0; i < 200; i++ {
			err := in.Write(simnet.Oregon, service.Post{ID: fmt.Sprintf("p%d", i), Body: "x"})
			outcomes = append(outcomes, err == nil)
			posts, err := in.Read(simnet.Tokyo, "reader")
			outcomes = append(outcomes, err == nil, posts == nil || len(posts) >= 0)
		}
		return outcomes, in.Stats()
	}
	o1, s1 := run()
	o2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d differs across identical runs", i)
		}
	}
}

func TestRetriedWriteDrawsFreshFault(t *testing.T) {
	// Per-ID attempt numbering: the same post ID retried draws a fresh
	// fault decision, so a deterministic injector cannot permanently
	// doom one post.
	in := New(&memService{}, newFakeClock(), Config{Seed: 3, WriteFailRate: 0.5})
	p := service.Post{ID: "stuck"}
	failed, succeeded := false, false
	for i := 0; i < 64 && !(failed && succeeded); i++ {
		if err := in.Write(simnet.Oregon, p); err != nil {
			failed = true
		} else {
			succeeded = true
		}
	}
	if !failed || !succeeded {
		t.Fatalf("64 attempts at 50%%: failed=%v succeeded=%v, want both", failed, succeeded)
	}
}

func TestTruncatedReadIsPrefix(t *testing.T) {
	inner := &memService{}
	for i := 0; i < 8; i++ {
		if err := inner.Write(simnet.Oregon, service.Post{ID: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	in := New(inner, newFakeClock(), Config{Seed: 11, TruncateReadRate: 1})
	posts, err := in.Read(simnet.Oregon, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) >= 8 {
		t.Fatalf("truncation kept all %d posts", len(posts))
	}
	for i, p := range posts {
		if p.ID != fmt.Sprintf("p%d", i) {
			t.Fatalf("truncated read is not a prefix: posts[%d] = %s", i, p.ID)
		}
	}
	if in.Stats().TruncatedReads == 0 {
		t.Fatal("no TruncatedReads accounted")
	}
}

// sharedService hands every reader the same read-only slice, length
// equal to capacity, as service.Simulated does for an unchanged replica.
type sharedService struct{ memService }

func (s *sharedService) Read(from simnet.Site, reader string) ([]service.Post, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clip(s.posts), nil
}

func TestTruncatedReadCannotReachSharedPosts(t *testing.T) {
	inner := &sharedService{}
	for i := 0; i < 8; i++ {
		if err := inner.Write(simnet.Oregon, service.Post{ID: fmt.Sprintf("p%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := inner.Read(simnet.Oregon, "r")
	want = slices.Clone(want)
	in := New(inner, newFakeClock(), Config{Seed: 11, TruncateReadRate: 1})
	posts, err := in.Read(simnet.Oregon, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) >= 8 || cap(posts) != len(posts) {
		t.Fatalf("truncated read: len %d cap %d, want a strict prefix and no spare capacity", len(posts), cap(posts))
	}
	_ = append(posts, service.Post{ID: "appended"})
	if next, _ := inner.Read(simnet.Oregon, "r"); !slices.Equal(next, want) {
		t.Fatalf("appending to a truncated read changed the replica's shared posts: %v", next)
	}
}

func TestOutageWindow(t *testing.T) {
	clock := newFakeClock()
	in := New(&memService{}, clock, Config{
		Seed:    1,
		Outages: []Outage{{Start: 10 * time.Second, End: 20 * time.Second}},
	})
	p := service.Post{ID: "a"}
	if err := in.Write(simnet.Oregon, p); err != nil {
		t.Fatalf("write before outage: %v", err)
	}
	clock.Sleep(15 * time.Second)
	if err := in.Write(simnet.Oregon, p); !errors.Is(err, ErrInjected) {
		t.Fatalf("write during outage = %v, want ErrInjected", err)
	}
	if _, err := in.Read(simnet.Oregon, "r"); !errors.Is(err, ErrInjected) {
		t.Fatalf("read during outage = %v, want ErrInjected", err)
	}
	clock.Sleep(10 * time.Second)
	if err := in.Write(simnet.Oregon, p); err != nil {
		t.Fatalf("write after outage: %v", err)
	}
	if got := in.Stats().OutageFailures; got != 2 {
		t.Fatalf("OutageFailures = %d, want 2", got)
	}
}

// TestShedCoversItsSitesUntilStopped checks an overload shed fails
// operations only from its sites, that the highest rate among the sheds
// in force applies, and that stop ends it.
func TestShedCoversItsSitesUntilStopped(t *testing.T) {
	in := New(&memService{}, newFakeClock(), Config{Seed: 1})
	shed := func(site simnet.Site) bool {
		err := in.Write(site, service.Post{ID: "p"})
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("write from %s: %v", site, err)
		}
		return err != nil
	}
	stopBoth := in.Shed([]simnet.Site{simnet.Oregon, simnet.Tokyo}, 1e-9)
	stopOregon := in.Shed([]simnet.Site{simnet.Oregon}, 1)
	if !shed(simnet.Oregon) || shed(simnet.Tokyo) {
		t.Fatal("rate-1 shed of oregon: want oregon shed and tokyo not")
	}
	stopOregon()
	if shed(simnet.Oregon) {
		t.Fatal("oregon still shed at rate 1 after its shed stopped")
	}
	stopBoth()
	if got := in.Stats().OverloadFailures; got != 1 {
		t.Fatalf("OverloadFailures = %d, want 1", got)
	}
}

func TestTimeoutStallsThenFails(t *testing.T) {
	clock := newFakeClock()
	in := New(&memService{}, clock, Config{Seed: 5, TimeoutRate: 1, Timeout: 3 * time.Second})
	before := clock.Now()
	err := in.Write(simnet.Oregon, service.Post{ID: "t"})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := clock.Now().Sub(before); got != 3*time.Second {
		t.Fatalf("stalled %v, want 3s", got)
	}
	if in.Stats().Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", in.Stats().Timeouts)
	}
}

func TestLatencySpikeDelaysButSucceeds(t *testing.T) {
	clock := newFakeClock()
	inner := &memService{}
	in := New(inner, clock, Config{Seed: 9, LatencyRate: 1, Latency: 2 * time.Second})
	before := clock.Now()
	if err := in.Write(simnet.Oregon, service.Post{ID: "s"}); err != nil {
		t.Fatal(err)
	}
	d := clock.Now().Sub(before)
	if d < time.Second || d >= 3*time.Second {
		t.Fatalf("spike delay %v outside [0.5, 1.5) of 2s", d)
	}
	if len(inner.posts) != 1 {
		t.Fatal("spiked write did not reach inner service")
	}
}

func TestResetPreservesFaultSchedule(t *testing.T) {
	// Counters persisting across Reset keep the fault schedule a function
	// of (seed, operation history): a run with a mid-campaign reset must
	// draw the same decisions as one without.
	trace := func(reset bool) []bool {
		in := New(&memService{}, newFakeClock(), Config{Seed: 21, ReadFailRate: 0.4})
		var outs []bool
		for i := 0; i < 50; i++ {
			if reset && i == 25 {
				if err := in.Reset(); err != nil {
					t.Fatal(err)
				}
			}
			_, err := in.Read(simnet.Oregon, "r")
			outs = append(outs, err == nil)
		}
		return outs
	}
	a, b := trace(false), trace(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d fault decision changed after Reset", i)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	New(&memService{}, newFakeClock(), Config{WriteFailRate: 2})
}
