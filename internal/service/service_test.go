package service

import (
	"strconv"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/store"
	"conprobe/internal/vtime"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newService(t *testing.T, p Profile, seed int64) (*vtime.Sim, *Simulated, *simnet.Network) {
	t.Helper()
	s := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(seed, simnet.WithJitter(0))
	svc, err := NewSimulated(s, net, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s, svc, net
}

func postIDs(ps []Post) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

func strEq(a, b []string) bool {
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

func TestProfileByName(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%s): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("profile %s has name %s", name, p.Name)
		}
	}
	if _, err := ProfileByName("myspace"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if len(ProfileNames()) != 4 {
		t.Fatal("want 4 built-in profiles")
	}
}

func TestAllProfilesInstantiate(t *testing.T) {
	for _, name := range ProfileNames() {
		p, _ := ProfileByName(name)
		s := vtime.NewSim(epoch)
		net := simnet.DefaultTopology(1)
		if _, err := NewSimulated(s, net, p, 1); err != nil {
			t.Fatalf("NewSimulated(%s): %v", name, err)
		}
	}
}

func TestNewSimulatedValidation(t *testing.T) {
	s := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1)
	tests := []struct {
		name string
		p    Profile
	}{
		{"no name", Profile{Routing: map[simnet.Site]simnet.Site{simnet.Oregon: simnet.DCWest}}},
		{"no routing", Profile{Name: "x", Store: store.Config{Mode: store.Strong, Sites: []simnet.Site{simnet.DCWest}}}},
		{"route to non-replica", Profile{
			Name:    "x",
			Store:   store.Config{Mode: store.Strong, Sites: []simnet.Site{simnet.DCWest}},
			Routing: map[simnet.Site]simnet.Site{simnet.Oregon: simnet.DCAsia},
		}},
		{"bad store", Profile{
			Name:    "x",
			Routing: map[simnet.Site]simnet.Site{simnet.Oregon: simnet.DCWest},
			Store:   store.Config{Sites: []simnet.Site{simnet.DCWest}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSimulated(s, net, tt.p, 1); err == nil {
				t.Fatalf("accepted %s", tt.name)
			}
		})
	}
}

func TestBloggerWriteReadRoundTrip(t *testing.T) {
	s, svc, _ := newService(t, Blogger(), 1)
	s.Go(func() {
		t0 := s.Now()
		if err := svc.Write(simnet.Oregon, Post{ID: "m1", Author: "agent1", Body: "hi"}); err != nil {
			t.Error(err)
			return
		}
		// Oregon->DCEast RTT is 70ms plus the API processing delay of
		// 350ms±50%: total in [245ms, 595ms].
		if lat := s.Since(t0); lat < 245*time.Millisecond || lat > 595*time.Millisecond {
			t.Errorf("write latency = %v, want within [245ms, 595ms]", lat)
		}
		got, err := svc.Read(simnet.Tokyo, "agent2")
		if err != nil {
			t.Error(err)
			return
		}
		if !strEq(postIDs(got), []string{"m1"}) {
			t.Errorf("read = %v, want [m1]", postIDs(got))
		}
		if got[0].Author != "agent1" || got[0].Body != "hi" {
			t.Errorf("post fields lost: %+v", got[0])
		}
	})
	s.Wait()
}

func TestBloggerStronglyConsistentAcrossAgents(t *testing.T) {
	s, svc, _ := newService(t, Blogger(), 1)
	s.Go(func() {
		for i, from := range simnet.AgentSites() {
			id := "m" + strconv.Itoa(i+1)
			if err := svc.Write(from, Post{ID: id, Author: "a"}); err != nil {
				t.Error(err)
				return
			}
			// Immediately visible to every agent, in order.
			for _, rf := range simnet.AgentSites() {
				got, err := svc.Read(rf, "r")
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != i+1 {
					t.Errorf("after %s: agent at %s sees %d posts, want %d", id, rf, len(got), i+1)
				}
			}
		}
	})
	s.Wait()
}

func TestGooglePlusEventualVisibility(t *testing.T) {
	s, svc, _ := newService(t, GooglePlus(), 1)
	s.Go(func() {
		if err := svc.Write(simnet.Oregon, Post{ID: "m1", Author: "agent1"}); err != nil {
			t.Error(err)
			return
		}
		// Ireland reads from DCEurope: not yet propagated (>=1.2s delay).
		got, err := svc.Read(simnet.Ireland, "agent3")
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 0 {
			t.Errorf("remote read saw %v before propagation", postIDs(got))
		}
		// Tokyo shares DCWest with Oregon: immediately visible (modulo
		// small local-apply jitter <=60ms; Tokyo->DCWest is 50ms one-way,
		// so wait a touch).
		s.Sleep(100 * time.Millisecond)
		got, err = svc.Read(simnet.Tokyo, "agent2")
		if err != nil {
			t.Error(err)
			return
		}
		if !strEq(postIDs(got), []string{"m1"}) {
			t.Errorf("same-DC read = %v, want [m1]", postIDs(got))
		}
		// Eventually Ireland converges.
		s.Sleep(10 * time.Second)
		got, err = svc.Read(simnet.Ireland, "agent3")
		if err != nil {
			t.Error(err)
			return
		}
		if !strEq(postIDs(got), []string{"m1"}) {
			t.Errorf("remote read after propagation = %v", postIDs(got))
		}
	})
	s.Wait()
}

func TestFBGroupSameSecondReversal(t *testing.T) {
	s, svc, _ := newService(t, FBGroup(), 1)
	s.Go(func() {
		s.Sleep(50 * time.Millisecond) // land inside one second
		if err := svc.Write(simnet.Oregon, Post{ID: "m1", Author: "agent1"}); err != nil {
			t.Error(err)
			return
		}
		if err := svc.Write(simnet.Oregon, Post{ID: "m2", Author: "agent1"}); err != nil {
			t.Error(err)
			return
		}
		got, err := svc.Read(simnet.Ireland, "agent3")
		if err != nil {
			t.Error(err)
			return
		}
		if !strEq(postIDs(got), []string{"m2", "m1"}) {
			t.Errorf("same-second order = %v, want [m2 m1]", postIDs(got))
		}
	})
	s.Wait()
}

func TestFBFeedOwnWriteDelayedByIndexing(t *testing.T) {
	p := FBFeed()
	p.APIDelay = 0 // keep the read's arrival ahead of the indexing delay
	s, svc, _ := newService(t, p, 1)
	s.Go(func() {
		if err := svc.Write(simnet.Oregon, Post{ID: "m1", Author: "agent1"}); err != nil {
			t.Error(err)
			return
		}
		// Read immediately: indexing delay (>=260ms) hides the write;
		// read round trip is only 12ms.
		got, err := svc.Read(simnet.Oregon, "agent1")
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 0 {
			t.Errorf("own write visible before indexing: %v", postIDs(got))
		}
		s.Sleep(2 * time.Second)
		got, err = svc.Read(simnet.Oregon, "agent1")
		if err != nil {
			t.Error(err)
			return
		}
		if !strEq(postIDs(got), []string{"m1"}) {
			t.Errorf("own write never indexed: %v", postIDs(got))
		}
	})
	s.Wait()
}

func TestUnroutedClientRejected(t *testing.T) {
	s, svc, _ := newService(t, Blogger(), 1)
	s.Go(func() {
		if err := svc.Write(simnet.Virginia, Post{ID: "m1"}); err == nil {
			t.Error("unrouted write accepted")
		}
		if _, err := svc.Read(simnet.Virginia, "c"); err == nil {
			t.Error("unrouted read accepted")
		}
	})
	s.Wait()
}

func TestPartitionedClientGetsError(t *testing.T) {
	s, svc, net := newService(t, Blogger(), 1)
	s.Go(func() {
		net.Partition(simnet.Oregon, simnet.DCEast)
		if err := svc.Write(simnet.Oregon, Post{ID: "m1"}); err == nil {
			t.Error("write across partition succeeded")
		}
		if _, err := svc.Read(simnet.Oregon, "c"); err == nil {
			t.Error("read across partition succeeded")
		}
	})
	s.Wait()
}

func TestResetClearsState(t *testing.T) {
	s, svc, _ := newService(t, Blogger(), 1)
	s.Go(func() {
		if err := svc.Write(simnet.Oregon, Post{ID: "m1"}); err != nil {
			t.Error(err)
			return
		}
		if err := svc.Reset(); err != nil {
			t.Error(err)
			return
		}
		got, err := svc.Read(simnet.Oregon, "c")
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 0 {
			t.Errorf("state survived Reset: %v", postIDs(got))
		}
	})
	s.Wait()
}

func TestReadFlapServesOtherReplica(t *testing.T) {
	p := GooglePlus()
	p.ReadFlapProb = 1 // always flap
	s, svc, _ := newService(t, p, 1)
	s.Go(func() {
		if err := svc.Write(simnet.Oregon, Post{ID: "m1", Author: "agent1"}); err != nil {
			t.Error(err)
			return
		}
		s.Sleep(200 * time.Millisecond)
		// Oregon's home DC has the write by now, but a flapped read goes
		// to DCEurope, which cannot have it yet (>=1.2s propagation).
		got, err := svc.Read(simnet.Oregon, "agent1")
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 0 {
			t.Errorf("flapped read saw %v", postIDs(got))
		}
	})
	s.Wait()
}

func TestSelectionShuffleAndDrop(t *testing.T) {
	entries := []Post{
		{ID: "m1", CreatedAt: epoch},
		{ID: "m2", CreatedAt: epoch},
		{ID: "m3", CreatedAt: epoch},
		{ID: "m4", CreatedAt: epoch},
	}
	s := vtime.NewSim(epoch.Add(time.Second))
	sel := &Selection{FreshFor: time.Hour, Shuffle: 0.5, DropFresh: 0.25}
	differed, dropped := false, false
	for nonce := uint64(0); nonce < 50; nonce++ {
		got := selected(sel, entries, s, 7, "reader", nonce)
		if len(got) < 4 {
			dropped = true
		}
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.ID
		}
		if !strEq(ids, []string{"m1", "m2", "m3", "m4"}) {
			differed = true
		}
	}
	if !differed {
		t.Error("shuffle never reordered fresh entries")
	}
	if !dropped {
		t.Error("drop never omitted fresh entries")
	}
}

func TestSelectionStableForOldEntries(t *testing.T) {
	old := epoch.Add(-time.Hour)
	entries := []Post{
		{ID: "m1", CreatedAt: old},
		{ID: "m2", CreatedAt: old},
	}
	s := vtime.NewSim(epoch)
	sel := &Selection{FreshFor: time.Minute, Shuffle: 1, DropFresh: 1}
	for nonce := uint64(0); nonce < 20; nonce++ {
		got := selected(sel, entries, s, 7, "reader", nonce)
		if len(got) != 2 || got[0].ID != "m1" || got[1].ID != "m2" {
			t.Fatalf("aged entries perturbed: %+v", got)
		}
	}
}

func TestSelectionDeterministicPerReadKey(t *testing.T) {
	entries := []Post{
		{ID: "m1", CreatedAt: epoch}, {ID: "m2", CreatedAt: epoch},
		{ID: "m3", CreatedAt: epoch}, {ID: "m4", CreatedAt: epoch},
	}
	s := vtime.NewSim(epoch.Add(time.Second))
	sel := &Selection{FreshFor: time.Hour, Shuffle: 0.5}
	a := selected(sel, entries, s, 7, "reader", 3)
	b := selected(sel, entries, s, 7, "reader", 3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic selection")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("nondeterministic selection order")
		}
	}
}

func TestSelectionTopK(t *testing.T) {
	entries := []Post{
		{ID: "m1", CreatedAt: epoch.Add(-time.Hour)},
		{ID: "m2", CreatedAt: epoch.Add(-time.Hour)},
		{ID: "m3", CreatedAt: epoch.Add(-time.Hour)},
	}
	s := vtime.NewSim(epoch)
	sel := &Selection{TopK: 2}
	got := selected(sel, entries, s, 7, "r", 1)
	if len(got) != 2 || cap(got) != 2 {
		t.Fatalf("TopK not applied: len %d cap %d", len(got), cap(got))
	}
	_ = append(got, Post{ID: "appended"}) // must not reach the shared m3
	if ids := postIDs(entries); !strEq(ids, []string{"m1", "m2", "m3"}) {
		t.Fatalf("appending to a TopK result changed the shared posts to %v", ids)
	}
}

func TestNilSelectionIdentity(t *testing.T) {
	var sel *Selection
	entries := []Post{{ID: "m1"}}
	s := vtime.NewSim(epoch)
	got := selected(sel, entries, s, 7, "r", 1)
	if len(got) != 1 || got[0].ID != "m1" {
		t.Fatal("nil selection must be identity")
	}
}

func TestAPIDelayBounds(t *testing.T) {
	p := Blogger() // APIDelay 350ms
	s, svc, _ := newService(t, p, 3)
	s.Go(func() {
		for i := 0; i < 20; i++ {
			t0 := s.Now()
			if err := svc.Write(simnet.Oregon, Post{ID: strconv.Itoa(i)}); err != nil {
				t.Error(err)
				return
			}
			// RTT 70ms + API in [175, 525): total in [245, 595).
			lat := s.Since(t0)
			if lat < 245*time.Millisecond || lat >= 595*time.Millisecond {
				t.Errorf("write %d latency %v out of range", i, lat)
				return
			}
		}
	})
	s.Wait()
}

func TestFlapNeverRoutesHome(t *testing.T) {
	// With flap probability 1 and only two replicas, every flapped read
	// must go to the remote replica; combined with a fresh local write,
	// the read result is empty every time.
	p := GooglePlus()
	p.ReadFlapProb = 1
	p.APIDelay = 0
	s, svc, _ := newService(t, p, 5)
	s.Go(func() {
		if err := svc.Write(simnet.Oregon, Post{ID: "m1", Author: "a1"}); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 10; i++ {
			got, err := svc.Read(simnet.Oregon, "a1")
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != 0 {
				t.Errorf("flapped read %d saw home data: %v", i, postIDs(got))
				return
			}
			s.Sleep(20 * time.Millisecond)
		}
	})
	s.Wait()
}

func TestGooglePlusFastEpochSkipsBacklog(t *testing.T) {
	// Force every epoch fast: remote visibility within network one-way
	// (plus nothing else).
	p := GooglePlus()
	p.Store.FastEpochProb = 1
	p.ReadFlapProb = 0
	p.APIDelay = 0
	s, svc, _ := newService(t, p, 2)
	s.Go(func() {
		if err := svc.Write(simnet.Oregon, Post{ID: "m1", Author: "a1"}); err != nil {
			t.Error(err)
			return
		}
		// DCWest->DCEurope one-way is 65ms; by 100ms Ireland must see it.
		s.Sleep(100 * time.Millisecond)
		got, err := svc.Read(simnet.Ireland, "a3")
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 1 {
			t.Errorf("fast epoch did not propagate promptly: %v", postIDs(got))
		}
	})
	s.Wait()
}
