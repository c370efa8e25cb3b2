package clustertest

import (
	"slices"
	"testing"
	"time"

	"conprobe/internal/cluster"
)

// TestDeliveryChaosDuplicatesRequests: with the duplication odds at
// 100%, every round trip runs its handler exactly twice — at-least-once
// delivery — while the client still receives exactly one response.
func TestDeliveryChaosDuplicatesRequests(t *testing.T) {
	clock := NewClock()
	net := NewNet(clock, 42, minHop, maxHop)
	net.EnableDeliveryChaos(10000, 0)
	net.SetNode("node://b", nil)
	tr := net.TransportFor("node://a").(*transport)

	handles, responds := 0, 0
	tr.roundTrip("node://b",
		func(*cluster.Node) { handles++ },
		func() { responds++ },
		func() { t.Fatal("reachable peer answered with a failure") },
	)
	clock.RunFor(time.Second)
	if handles != 2 {
		t.Fatalf("duplicated request ran the handler %d times, want 2", handles)
	}
	if responds != 1 {
		t.Fatalf("client saw %d responses, want exactly 1", responds)
	}
}

// TestDeliveryChaosReordersMessages: with the reorder odds at 100%,
// every message is held back past the maximum normal hop, so a message
// sent later can arrive first.
func TestDeliveryChaosReordersMessages(t *testing.T) {
	clock := NewClock()
	net := NewNet(clock, 42, minHop, maxHop)
	net.EnableDeliveryChaos(0, 10000)
	net.SetNode("node://b", nil)
	tr := net.TransportFor("node://a").(*transport)

	start := clock.Now()
	var handledAt time.Duration
	tr.roundTrip("node://b",
		func(*cluster.Node) { handledAt = clock.Now().Sub(start) },
		func() {},
		func() { t.Fatal("reachable peer answered with a failure") },
	)
	clock.RunFor(time.Second)
	if handledAt == 0 {
		t.Fatal("request never delivered")
	}
	if handledAt <= maxHop {
		t.Fatalf("reordered request arrived after %v, inside the normal hop bound %v", handledAt, maxHop)
	}
}

// TestDeliveryChaosIsDeterministic: the chaos draws come off the same
// keyed stream as hop latency, so two same-seed fabrics schedule
// identical duplications and holds.
func TestDeliveryChaosIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		clock := NewClock()
		net := NewNet(clock, 7, minHop, maxHop)
		net.EnableDeliveryChaos(5000, 5000)
		net.SetNode("node://b", nil)
		tr := net.TransportFor("node://a").(*transport)
		start := clock.Now()
		var at []time.Duration
		for i := 0; i < 20; i++ {
			tr.roundTrip("node://b",
				func(*cluster.Node) { at = append(at, clock.Now().Sub(start)) },
				func() {}, func() {},
			)
		}
		clock.RunFor(time.Second)
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ across same-seed runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v in run 1 but %v in run 2", i, a[i], b[i])
		}
	}
}

// TestClockTimerReset: Reset is Stop plus AfterFunc behind one handle —
// the moved arm fires once at its new instant, in creation order among
// the events of that instant, and a fired timer arms again.
func TestClockTimerReset(t *testing.T) {
	clock := NewClock()
	var fired []string
	note := func(tag string) func() {
		return func() { fired = append(fired, tag+"@"+clock.Since(epoch).String()) }
	}
	tm := clock.AfterFunc(time.Second, note("moved"))
	clock.AfterFunc(3*time.Second, note("other"))
	if !tm.Reset(3 * time.Second) {
		t.Error("Reset of a pending timer reported false")
	}
	clock.RunFor(5 * time.Second)
	if tm.Reset(-time.Second) { // a negative delay is due now
		t.Error("Reset of a fired timer reported true")
	}
	if !tm.Stop() || tm.Stop() {
		t.Error("Stop after Reset: want true once, then false")
	}
	tm.Reset(time.Second)
	clock.RunFor(time.Second)
	if want := []string{"other@3s", "moved@3s", "moved@6s"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}
