package store

import (
	"fmt"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// BenchmarkStoreReadCached isolates the timeline-cache fast path: a
// quiescent replica read over and over. This is the common case during
// a campaign's read phases, where many probes land between writes.
func BenchmarkStoreReadCached(b *testing.B) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast}
	net := simnet.DefaultTopology(1)
	c, err := NewCluster(vtime.Real{}, net, Config{Mode: Strong, Sites: sites}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if _, err := c.Write(sites[0], fmt.Sprintf("seed%d", i), "a", ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(sites[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRepeatedReadDoesNotAllocate gates the shared rendering: once a read
// has rendered a replica's timeline, reading it again copies nothing, in
// every read order.
func TestRepeatedReadDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, order := range []OrderKind{OrderTimestamp, OrderArrival, OrderHybrid} {
		// Strong writes apply inline, so no actor has to run.
		_, c, _ := newSimCluster(t, Config{Mode: Strong, Sites: []simnet.Site{simnet.DCWest}, Order: order})
		for i := 0; i < 6; i++ {
			if _, err := c.Write(simnet.DCWest, fmt.Sprintf("m%d", i), "a", ""); err != nil {
				t.Fatal(err)
			}
		}
		read := func() {
			if got, err := c.Read(simnet.DCWest); err != nil || len(got) != 6 {
				t.Fatalf("order=%v: read %d entries, err %v", order, len(got), err)
			}
		}
		read()
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("order=%v: a repeated Read allocates %v times", order, n)
		}
	}
}

// fbgroupStore is the Facebook Group profile's store configuration
// (service.FBGroup, which this package cannot import).
var fbgroupStore = Config{
	Mode:              Eventual,
	Sites:             []simnet.Site{simnet.DCEast, simnet.DCAsia},
	PropagationBase:   5 * time.Millisecond,
	PropagationJitter: 15 * time.Millisecond,
	Policy:            TimestampPolicy{Precision: time.Second, ReverseTies: true},
	RetryInterval:     500 * time.Millisecond,
}

// TestDeliveryArmsAllocateNothing pins the delivery chain — enqueue, timer
// fire, apply, re-arm — at zero objects: on fbgroup's two sites, a round
// of eight writes, their deliveries and a Reset allocates nothing on a
// cluster a first such round has grown. The same holds when every
// delivery is blocked and re-queued for 50 retry intervals.
func TestDeliveryArmsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%d", i)
	}
	for _, tc := range []struct {
		name   string
		settle time.Duration
		held   bool // DCEast–DCAsia partitioned throughout
		reach  int  // writes DCAsia holds after settling
	}{
		{"delivered", time.Second, false, len(ids)},
		{"partitioned", 50 * fbgroupStore.RetryInterval, true, 0},
	} {
		s, c, net := newSimCluster(t, fbgroupStore)
		if tc.held {
			net.Partition(simnet.DCEast, simnet.DCAsia)
		}
		var allocs float64
		s.Go(func() {
			allocs = testing.AllocsPerRun(20, func() {
				for _, id := range ids {
					if _, err := c.Write(simnet.DCEast, id, "a", ""); err != nil {
						t.Error(err)
					}
					s.Sleep(time.Millisecond)
				}
				s.Sleep(tc.settle)
				if got := c.Len(simnet.DCAsia); got != tc.reach {
					t.Errorf("%s: %d writes reached DCAsia, want %d", tc.name, got, tc.reach)
				}
				c.Reset()
			})
		})
		s.Wait()
		if allocs != 0 {
			t.Errorf("%s: a round of %d writes allocates %v objects, want 0", tc.name, len(ids), allocs)
		}
	}
}
