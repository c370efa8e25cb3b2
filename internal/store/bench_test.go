package store

import (
	"fmt"
	"testing"

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
