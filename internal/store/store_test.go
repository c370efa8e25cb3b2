package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

var epoch0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newSimCluster(t *testing.T, cfg Config) (*vtime.Sim, *Cluster, *simnet.Network) {
	t.Helper()
	s := vtime.NewSim(epoch0)
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	c, err := NewCluster(s, net, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s, c, net
}

func idsOf(posts []Post) []string {
	out := make([]string, len(posts))
	for i, p := range posts {
		out[i] = p.ID
	}
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewClusterValidation(t *testing.T) {
	s := vtime.NewSim(epoch0)
	net := simnet.DefaultTopology(1)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"no mode", Config{Sites: []simnet.Site{simnet.DCWest}}},
		{"no sites", Config{Mode: Strong}},
		{"bad primary", Config{Mode: Strong, Sites: []simnet.Site{simnet.DCWest}, Primary: simnet.DCAsia}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCluster(s, net, tt.cfg, 1); err == nil {
				t.Fatalf("NewCluster accepted %s", tt.name)
			}
		})
	}
}

func TestStrongWriteVisibleEverywhereImmediately(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia, simnet.DCEurope}
	s, c, _ := newSimCluster(t, Config{Mode: Strong, Sites: sites})
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "m1", "a1", "hello"); err != nil {
			t.Error(err)
			return
		}
		for _, site := range sites {
			got, err := c.Read(site)
			if err != nil {
				t.Error(err)
				return
			}
			if !eq(idsOf(got), []string{"m1"}) {
				t.Errorf("replica %s = %v, want [m1]", site, idsOf(got))
			}
		}
	})
	s.Wait()
}

func TestEventualWriteVisibleLocallyThenPropagates(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	s, c, _ := newSimCluster(t, Config{Mode: Eventual, Sites: sites})
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "m1", "a1", "x"); err != nil {
			t.Error(err)
			return
		}
		local, _ := c.Read(simnet.DCWest)
		if !eq(idsOf(local), []string{"m1"}) {
			t.Errorf("origin replica missing write: %v", idsOf(local))
		}
		remote, _ := c.Read(simnet.DCAsia)
		if len(remote) != 0 {
			t.Errorf("remote replica saw write immediately: %v", idsOf(remote))
		}
		// DCWest-DCAsia one-way is 47.5ms (95ms RTT, no jitter).
		s.Sleep(100 * time.Millisecond)
		remote, _ = c.Read(simnet.DCAsia)
		if !eq(idsOf(remote), []string{"m1"}) {
			t.Errorf("remote replica after propagation: %v", idsOf(remote))
		}
	})
	s.Wait()
}

func TestEventualPropagationDelayKnobs(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	s, c, _ := newSimCluster(t, Config{
		Mode: Eventual, Sites: sites,
		PropagationFactor: 2, PropagationBase: 500 * time.Millisecond,
	})
	s.Go(func() {
		_, err := c.Write(simnet.DCWest, "m1", "a1", "x")
		if err != nil {
			t.Error(err)
			return
		}
		// Delay = 47.5ms*2 + 500ms = 595ms.
		s.Sleep(590 * time.Millisecond)
		if c.Len(simnet.DCAsia) != 0 {
			t.Error("propagated too early")
		}
		s.Sleep(10 * time.Millisecond)
		if c.Len(simnet.DCAsia) != 1 {
			t.Error("not propagated after base+scaled delay")
		}
	})
	s.Wait()
}

func TestPartitionBlocksPropagationUntilHeal(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	s, c, net := newSimCluster(t, Config{
		Mode: Eventual, Sites: sites, RetryInterval: 200 * time.Millisecond,
	})
	s.Go(func() {
		net.Partition(simnet.DCWest, simnet.DCAsia)
		if _, err := c.Write(simnet.DCWest, "m1", "a1", "x"); err != nil {
			t.Error(err)
			return
		}
		s.Sleep(2 * time.Second)
		if c.Len(simnet.DCAsia) != 0 {
			t.Error("write crossed a partition")
		}
		net.Heal(simnet.DCWest, simnet.DCAsia)
		s.Sleep(300 * time.Millisecond) // next retry lands
		if c.Len(simnet.DCAsia) != 1 {
			t.Error("write not delivered after heal")
		}
	})
	s.Wait()
}

func TestTimestampTruncationAndReverseTies(t *testing.T) {
	// Facebook Group behavior: same-second writes appear in reverse order
	// at every replica.
	sites := []simnet.Site{simnet.DCEast, simnet.DCAsia}
	s, c, _ := newSimCluster(t, Config{
		Mode:   Eventual,
		Sites:  sites,
		Policy: TimestampPolicy{Precision: time.Second, ReverseTies: true},
	})
	s.Go(func() {
		// Land inside one wall-clock second.
		s.Sleep(100 * time.Millisecond)
		if _, err := c.Write(simnet.DCEast, "m1", "a1", "x"); err != nil {
			t.Error(err)
		}
		s.Sleep(300 * time.Millisecond)
		if _, err := c.Write(simnet.DCEast, "m2", "a1", "y"); err != nil {
			t.Error(err)
		}
		got, _ := c.Read(simnet.DCEast)
		if !eq(idsOf(got), []string{"m2", "m1"}) {
			t.Errorf("same-second order = %v, want [m2 m1]", idsOf(got))
		}
		// Remote replica converges to the same (reversed) order.
		s.Sleep(time.Second)
		remote, _ := c.Read(simnet.DCAsia)
		if !eq(idsOf(remote), []string{"m2", "m1"}) {
			t.Errorf("remote same-second order = %v, want [m2 m1]", idsOf(remote))
		}
		// A write in a later second sorts after both.
		s.Sleep(time.Second)
		if _, err := c.Write(simnet.DCEast, "m3", "a1", "z"); err != nil {
			t.Error(err)
		}
		got, _ = c.Read(simnet.DCEast)
		if !eq(idsOf(got), []string{"m2", "m1", "m3"}) {
			t.Errorf("cross-second order = %v, want [m2 m1 m3]", idsOf(got))
		}
	})
	s.Wait()
}

func TestForwardTiesPreserveArrivalOrder(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest}
	s, c, _ := newSimCluster(t, Config{
		Mode:   Strong,
		Sites:  sites,
		Policy: TimestampPolicy{Precision: time.Second},
	})
	s.Go(func() {
		s.Sleep(50 * time.Millisecond)
		for _, id := range []string{"m1", "m2", "m3"} {
			if _, err := c.Write(simnet.DCWest, id, "a1", ""); err != nil {
				t.Error(err)
			}
			s.Sleep(10 * time.Millisecond)
		}
		got, _ := c.Read(simnet.DCWest)
		if !eq(idsOf(got), []string{"m1", "m2", "m3"}) {
			t.Errorf("order = %v, want arrival order", idsOf(got))
		}
	})
	s.Wait()
}

func TestDuplicateDeliveryIdempotent(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	s, c, _ := newSimCluster(t, Config{Mode: Eventual, Sites: sites})
	s.Go(func() {
		e, err := c.Write(simnet.DCWest, "m1", "a1", "x")
		if err != nil {
			t.Error(err)
			return
		}
		s.Sleep(time.Second)
		// Manually re-deliver.
		c.apply(c.replicas[simnet.DCAsia], e, s.Now())
		if c.Len(simnet.DCAsia) != 1 {
			t.Errorf("duplicate delivery created %d entries", c.Len(simnet.DCAsia))
		}
	})
	s.Wait()
}

func TestWriteAndReadUnknownSite(t *testing.T) {
	s, c, _ := newSimCluster(t, Config{Mode: Strong, Sites: []simnet.Site{simnet.DCWest}})
	s.Go(func() {
		if _, err := c.Write(simnet.DCAsia, "m1", "a", ""); err == nil {
			t.Error("Write to unknown site succeeded")
		}
		if _, err := c.Read(simnet.DCAsia); err == nil {
			t.Error("Read from unknown site succeeded")
		}
		if c.Len(simnet.DCAsia) != 0 {
			t.Error("Len of unknown site non-zero")
		}
	})
	s.Wait()
}

func TestResetDropsInFlightPropagation(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	s, c, _ := newSimCluster(t, Config{
		Mode: Eventual, Sites: sites, PropagationBase: time.Second,
	})
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "m1", "a1", "x"); err != nil {
			t.Error(err)
			return
		}
		c.Reset() // before propagation fires
		s.Sleep(3 * time.Second)
		if c.Len(simnet.DCAsia) != 0 || c.Len(simnet.DCWest) != 0 {
			t.Error("stale propagation applied after Reset")
		}
	})
	s.Wait()
}

// TestReadSharesRenderingUntilApply pins Read's sharing contract: reads
// of an unchanged replica return one backing array; an apply or a Reset
// makes the next read render a new one and leaves the slice handed out
// earlier exactly as it was.
func TestReadSharesRenderingUntilApply(t *testing.T) {
	site := simnet.DCWest
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	c, err := NewCluster(vtime.Real{}, net, Config{Mode: Strong, Sites: []simnet.Site{site}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	write := func(id string) {
		t.Helper()
		if _, err := c.Write(site, id, "a", "x"); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []Post {
		t.Helper()
		got, err := c.Read(site)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	write("m1")
	first := read()
	if again := read(); &again[0] != &first[0] {
		t.Error("two reads of an unchanged replica returned different backing arrays")
	}
	firstWas := slices.Clone(first)

	write("m2")
	second := read()
	if &second[0] == &first[0] {
		t.Error("a read after an apply returned the rendering from before it")
	}
	if !eq(idsOf(second), []string{"m1", "m2"}) {
		t.Errorf("read after apply = %v, want [m1 m2]", idsOf(second))
	}
	secondWas := slices.Clone(second)

	c.Reset()
	if got := read(); len(got) != 0 {
		t.Errorf("read after Reset = %v, want nothing", idsOf(got))
	}
	write("m3")
	third := read()
	if &third[0] == &first[0] || &third[0] == &second[0] {
		t.Error("a read after Reset reused a rendering handed out before it")
	}
	if !slices.Equal(first, firstWas) || !slices.Equal(second, secondWas) {
		t.Error("a rendering handed out earlier was written to by a later apply or Reset")
	}

	// A writer and a resetter beside the reader: under -race any store
	// write to a rendering a reader still holds is reported here.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if _, err := c.Write(site, fmt.Sprintf("w%d", i), "a", "x"); err != nil {
				t.Error(err)
				return
			}
			if i%100 == 99 {
				c.Reset()
			}
		}
	}()
	var held, heldWas []Post
	for i := 0; i < 500; i++ {
		got := read()
		if !slices.Equal(held, heldWas) {
			t.Fatal("a held rendering changed while the writer ran")
		}
		held, heldWas = got, slices.Clone(got)
	}
	wg.Wait()
}

// TestHeldReadNeverChanges holds every read of a hybrid-ordered eventual
// cluster while writes are applied and delivered, the normalize cutoff
// passes entries and a Reset clears the replicas: a read is the replica's
// rendering itself, so no element of any slice handed out may change.
func TestHeldReadNeverChanges(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast}
	s, c, _ := newSimCluster(t, Config{
		Mode: Eventual, Sites: sites, Order: OrderHybrid, NormalizeAfter: time.Second,
		PropagationJitter: 300 * time.Millisecond,
	})
	type held struct{ got, was []Post }
	var kept []held
	s.Go(func() {
		for i := 0; i < 40; i++ {
			if i == 25 {
				c.Reset()
			}
			if _, err := c.Write(sites[i%2], fmt.Sprintf("m%d", i), "a", "body"); err != nil {
				t.Error(err)
				return
			}
			for _, site := range sites {
				got, err := c.Read(site)
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, held{got, slices.Clone(got)})
			}
			s.Sleep(150 * time.Millisecond)
		}
	})
	s.Wait()
	for i, h := range kept {
		if !slices.Equal(h.got, h.was) {
			t.Fatalf("held read %d changed: %v, was %v", i, idsOf(h.got), idsOf(h.was))
		}
	}
	if last := kept[len(kept)-1].got; len(last) == 0 || len(last) > 15 {
		t.Fatalf("last read holds %d posts: the writes or the Reset did not take", len(last))
	}
}

func TestAccessors(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	_, c, _ := newSimCluster(t, Config{Mode: Eventual, Sites: sites, Primary: simnet.DCAsia})
	if c.Mode() != Eventual {
		t.Error("Mode accessor wrong")
	}
	if c.Primary() != simnet.DCAsia {
		t.Error("Primary accessor wrong")
	}
	got := c.Sites()
	if len(got) != 2 {
		t.Error("Sites accessor wrong")
	}
	got[0] = "tampered"
	if c.Sites()[0] == "tampered" {
		t.Error("Sites exposed internal slice")
	}
	if Strong.String() != "strong" || Eventual.String() != "eventual" || Mode(9).String() == "" {
		t.Error("Mode.String wrong")
	}
}

func TestAppliedAtTracksApplyTimes(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	s, c, _ := newSimCluster(t, Config{Mode: Eventual, Sites: sites})
	s.Go(func() {
		t0 := s.Now()
		if _, err := c.Write(simnet.DCWest, "m1", "a", ""); err != nil {
			t.Error(err)
			return
		}
		at, ok := c.AppliedAt(simnet.DCWest, "m1")
		if !ok || !at.Equal(t0) {
			t.Errorf("origin apply = %v, %v", at, ok)
		}
		if _, ok := c.AppliedAt(simnet.DCAsia, "m1"); ok {
			t.Error("remote applied before propagation")
		}
		s.Sleep(time.Second)
		at, ok = c.AppliedAt(simnet.DCAsia, "m1")
		if !ok || !at.After(t0) {
			t.Errorf("remote apply = %v, %v", at, ok)
		}
		if _, ok := c.AppliedAt("nowhere", "m1"); ok {
			t.Error("unknown site has apply time")
		}
		if _, ok := c.AppliedAt(simnet.DCWest, "nope"); ok {
			t.Error("unknown entry has apply time")
		}
	})
	s.Wait()
}

// Regression: a Reset must drop the cached renderings along with the
// log. A cache that outlived it once kept pre-Reset entries in the
// timeline and dropped early post-Reset ones (write old1, Read, Reset,
// write new1+new2 -> [old1 new2]).
func TestResetInvalidatesTimelineCache(t *testing.T) {
	for _, shards := range stripeEraCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, c, _ := newSimCluster(t, Config{
				Mode: Strong, Sites: []simnet.Site{simnet.DCWest},
			})
			s.Go(func() {
				if _, err := c.Write(simnet.DCWest, "old1", "a", "x"); err != nil {
					t.Error(err)
					return
				}
				if got, _ := c.Read(simnet.DCWest); !eq(idsOf(got), []string{"old1"}) {
					t.Errorf("pre-reset read = %v, want [old1]", idsOf(got))
					return
				}
				c.Reset()
				want := make([]string, 0, 8)
				for i := 0; i < 8; i++ {
					id := fmt.Sprintf("new%d", i)
					want = append(want, id)
					if _, err := c.Write(simnet.DCWest, id, "a", "x"); err != nil {
						t.Error(err)
						return
					}
					s.Sleep(time.Millisecond)
				}
				got, err := c.Read(simnet.DCWest)
				if err != nil {
					t.Error(err)
					return
				}
				if !eq(idsOf(got), want) {
					t.Errorf("post-reset read = %v, want %v", idsOf(got), want)
				}
			})
			s.Wait()
		})
	}
}

// Regression: the epoch check on the apply path was a non-atomic
// check-then-apply racing Reset, so a write or delivery from before a
// Reset could land after the replicas were cleared and leak a stale entry
// into the new epoch. Run writers against concurrent Resets under the
// real clock (exercised with -race in verify), then confirm a final
// Reset leaves nothing behind and fresh writes read back exactly.
func TestConcurrentResetDropsStaleWrites(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	net := simnet.DefaultTopology(42, simnet.WithJitter(0))
	c, err := NewCluster(vtime.Real{}, net, Config{
		Mode: Eventual, Sites: sites, PropagationBase: time.Millisecond,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				site := sites[i%len(sites)]
				if _, err := c.Write(site, fmt.Sprintf("w%d-%d", w, i), "a", "x"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		time.Sleep(2 * time.Millisecond)
		c.Reset()
		for _, site := range sites {
			if _, err := c.Read(site); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	c.Reset()
	// Give the delivery timer armed in the dead epochs a chance to
	// fire; their deliveries must all be dropped by the epoch check.
	time.Sleep(20 * time.Millisecond)
	for _, site := range sites {
		if n := c.Len(site); n != 0 {
			t.Errorf("site %s holds %d stale entries after final Reset", site, n)
		}
	}
	if _, err := c.Write(simnet.DCWest, "fresh", "a", "x"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(simnet.DCWest)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"fresh"}) {
		t.Errorf("post-reset read = %v, want [fresh]", idsOf(got))
	}
}
