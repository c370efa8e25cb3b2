package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/faultinject"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

func mustValidate(t *testing.T, s *Schedule) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown kind", Event{Kind: "meteor", At: time.Second}, "unknown kind"},
		{"negative offset", Event{Kind: KindHeal, At: -time.Second, A: "x", B: "y"}, "negative offset"},
		{"partition same site", Event{Kind: KindPartition, A: "x", B: "x"}, "distinct sites"},
		{"inverted window", Event{Kind: KindPartition, A: "x", B: "y", At: 2 * time.Second, Until: time.Second}, "empty or inverted"},
		{"outage no end", Event{Kind: KindOutage, Site: "x"}, "needs an end"},
		{"skew no delta", Event{Kind: KindSkew, Agent: "agent1"}, "zero delta"},
		{"overload bad rate", Event{Kind: KindOverload, Site: "x", Until: time.Second, Rate: 1.5}, "rate"},
		{"kill no site", Event{Kind: KindKill, At: time.Second}, "needs a site"},
		{"kill inverted window", Event{Kind: KindKill, Site: "x", At: 2 * time.Second, Until: time.Second}, "empty or inverted"},
		{"restart no site", Event{Kind: KindRestart, At: time.Second}, "needs a site"},
		{"restart with window", Event{Kind: KindRestart, Site: "x", At: time.Second, Until: 2 * time.Second}, "instantaneous"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.ev}}
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestActiveAtWindows(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindPartition, A: simnet.DCEast, B: simnet.DCAsia, At: 10 * time.Minute, Until: 20 * time.Minute},
		{Kind: KindPartition, A: simnet.DCWest, B: simnet.DCEurope, At: 5 * time.Minute}, // open-ended
		{Kind: KindHeal, A: simnet.DCEurope, B: simnet.DCWest, At: 15 * time.Minute},     // reversed endpoints still match
		{Kind: KindOutage, Site: simnet.DCAsia, At: 30 * time.Minute, Until: 35 * time.Minute},
		{Kind: KindOverload, Site: simnet.DCEast, At: 12 * time.Minute, Until: 13 * time.Minute, Rate: 0.5},
		{Kind: KindSkew, Agent: "agent1", At: 11 * time.Minute, Delta: time.Second},
	}}
	mustValidate(t, s)
	cases := []struct {
		at   time.Duration
		want []string
	}{
		{0, nil},
		{6 * time.Minute, []string{"partition(dc-europe,dc-west)"}},
		{12 * time.Minute, []string{"overload(dc-east)", "partition(dc-asia,dc-east)", "partition(dc-europe,dc-west)"}},
		{16 * time.Minute, []string{"partition(dc-asia,dc-east)"}}, // heal ended the open partition
		{25 * time.Minute, nil},
		{32 * time.Minute, []string{"outage(dc-asia)"}},
	}
	for _, c := range cases {
		got := s.ActiveAt(c.at)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ActiveAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

// nopService accepts every operation.
type nopService struct{}

func (nopService) Name() string                                     { return "nop" }
func (nopService) Write(simnet.Site, service.Post) error            { return nil }
func (nopService) Read(simnet.Site, string) ([]service.Post, error) { return nil, nil }
func (nopService) Reset() error                                     { return nil }

// TestDriveOverloadShedsRoutedSites checks an overload event sheds
// exactly the operations from the client sites routed to the overloaded
// data center while its window is open — an operation at the instant it
// opens included, one at the instant it ends excluded — both in a world
// that lives through the window and in one rebuilt at the operation's
// instant (resume), and that an overload needs a service to shed
// through.
func TestDriveOverloadShedsRoutedSites(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindOverload, Site: simnet.DCEast, At: time.Minute, Until: 2 * time.Minute, Rate: 1},
	}}
	mustValidate(t, s)
	routing := map[simnet.Site]simnet.Site{
		simnet.Oregon:  simnet.DCEast,
		simnet.Ireland: simnet.DCEast,
		simnet.Tokyo:   simnet.DCAsia,
	}
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		at   time.Duration
		shed bool
	}{
		{30 * time.Second, false},
		{time.Minute, true},
		{90 * time.Second, true},
		{2 * time.Minute, false},
		{3 * time.Minute, false},
	} {
		for _, built := range []time.Duration{0, c.at} {
			sim := vtime.NewSim(start.Add(built))
			inj := faultinject.New(nopService{}, sim, faultinject.Config{Seed: 1})
			w := World{Net: simnet.DefaultTopology(1), Service: inj, Routing: routing}
			if err := s.Drive(sim, start, w, nil); err != nil {
				t.Fatal(err)
			}
			errs := make(map[simnet.Site]error)
			sim.Go(func() {
				sim.Sleep(c.at - built)
				for site := range routing {
					errs[site] = inj.Write(site, service.Post{ID: "p-" + string(site)})
				}
			})
			sim.Wait()
			for site, dc := range routing {
				if want := c.shed && dc == simnet.DCEast; (errs[site] != nil) != want {
					t.Errorf("built at %v, write from %s at %v: err %v, want shed %v", built, site, c.at, errs[site], want)
				}
			}
		}
	}

	sim := vtime.NewSim(start)
	if err := s.Drive(sim, start, World{Net: simnet.DefaultTopology(1), Routing: routing}, nil); err == nil {
		t.Fatal("overload driven without a service to shed through")
	}
}

type fakeClock struct{ skew time.Duration }

func (f *fakeClock) Skew() time.Duration     { return f.skew }
func (f *fakeClock) SetSkew(d time.Duration) { f.skew = d }

// driveTo builds a network, drives the schedule from a world whose clock
// has already advanced to elapsed, and settles all due timers.
func driveTo(t *testing.T, s *Schedule, elapsed time.Duration, clock *fakeClock) *simnet.Network {
	t.Helper()
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sim := vtime.NewSim(start.Add(elapsed))
	net := simnet.DefaultTopology(1)
	w := World{Net: net, Clocks: map[string]AdjustableClock{"agent1": clock}}
	if err := s.Drive(sim, start, w, nil); err != nil {
		t.Fatal(err)
	}
	sim.Wait()
	return net
}

// TestDriveCatchUpMatchesLivedWorld checks the resume property: a world
// built mid-schedule (catch-up path) ends in the same network and clock
// state as a world that lived through the schedule on timers.
func TestDriveCatchUpMatchesLivedWorld(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindPartition, A: simnet.DCEast, B: simnet.DCAsia, At: time.Minute, Until: 2 * time.Minute},
		{Kind: KindPartition, A: simnet.DCWest, B: simnet.DCEurope, At: 90 * time.Second},
		{Kind: KindOutage, Site: simnet.DCAsia, At: 10 * time.Minute, Until: 11 * time.Minute},
		{Kind: KindSkew, Agent: "agent1", At: 30 * time.Second, Delta: 500 * time.Millisecond},
		{Kind: KindSkew, Agent: "agent1", At: 3 * time.Minute, Delta: -200 * time.Millisecond},
	}}
	mustValidate(t, s)

	type probe struct{ a, b simnet.Site }
	links := []probe{
		{simnet.DCEast, simnet.DCAsia},
		{simnet.DCWest, simnet.DCEurope},
		{simnet.DCAsia, simnet.Oregon},
		{simnet.DCAsia, simnet.DCWest},
	}
	for _, elapsed := range []time.Duration{0, 95 * time.Second, 150 * time.Second, 4 * time.Minute, 630 * time.Second, 20 * time.Minute} {
		// Lived world: clock starts at campaign start, timers fire as the
		// sim drains up to (at least) elapsed.
		livedClock := &fakeClock{}
		start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		sim := vtime.NewSim(start)
		livedNet := simnet.DefaultTopology(1)
		w := World{Net: livedNet, Clocks: map[string]AdjustableClock{"agent1": livedClock}}
		if err := s.Drive(sim, start, w, nil); err != nil {
			t.Fatal(err)
		}
		el := elapsed
		sim.Go(func() { sim.Sleep(el) })
		sim.Wait()

		// Resumed world: built directly at elapsed; past events replay in
		// the catch-up pass.
		resumedClock := &fakeClock{}
		resumedNet := driveTo(t, s, elapsed, resumedClock)

		for _, l := range links {
			if lv, rs := livedNet.Reachable(l.a, l.b), resumedNet.Reachable(l.a, l.b); lv != rs {
				t.Errorf("elapsed %v: link %s-%s lived=%v resumed=%v", elapsed, l.a, l.b, lv, rs)
			}
		}
		if livedClock.Skew() != resumedClock.Skew() {
			t.Errorf("elapsed %v: skew lived=%v resumed=%v", elapsed, livedClock.Skew(), resumedClock.Skew())
		}
	}
}

// TestKillActiveUntilRestart checks the open-ended kill window resolves
// against its matching restart, and only restarts of the same site.
func TestKillActiveUntilRestart(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKill, Site: simnet.DCAsia, At: time.Minute},        // open-ended
		{Kind: KindRestart, Site: simnet.DCEast, At: 2 * time.Minute}, // different site: no effect
		{Kind: KindRestart, Site: simnet.DCAsia, At: 5 * time.Minute},
		{Kind: KindKill, Site: simnet.DCWest, At: 10 * time.Minute, Until: 11 * time.Minute}, // windowed
	}}
	mustValidate(t, s)
	cases := []struct {
		at   time.Duration
		want []string
	}{
		{30 * time.Second, nil},
		{90 * time.Second, []string{"kill(dc-asia)"}},
		{3 * time.Minute, []string{"kill(dc-asia)"}}, // dc-east restart doesn't end it
		{6 * time.Minute, nil},
		{10*time.Minute + 30*time.Second, []string{"kill(dc-west)"}},
		{12 * time.Minute, nil},
	}
	for _, c := range cases {
		if got := s.ActiveAt(c.at); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ActiveAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

// TestDriveKillSeversAndRestartRestores drives a kill/restart pair on
// the virtual clock and checks the killed site is unreachable from every
// peer while down, and fully restored after restart — in both the lived
// and the resumed (catch-up) world.
func TestDriveKillSeversAndRestartRestores(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindKill, Site: simnet.DCAsia, At: time.Minute},
		{Kind: KindRestart, Site: simnet.DCAsia, At: 3 * time.Minute},
		{Kind: KindKill, Site: simnet.DCEast, At: 5 * time.Minute, Until: 6 * time.Minute},
	}}
	mustValidate(t, s)
	check := func(label string, net *simnet.Network, asiaUp, eastUp bool) {
		t.Helper()
		for _, o := range net.Sites() {
			if o != simnet.DCAsia {
				want := asiaUp
				if o == simnet.DCEast {
					want = asiaUp && eastUp // the link needs both ends alive
				}
				if got := net.Reachable(simnet.DCAsia, o); got != want {
					t.Errorf("%s: dc-asia<->%s reachable=%v, want %v", label, o, got, want)
				}
			}
			if o != simnet.DCEast && o != simnet.DCAsia {
				if got := net.Reachable(simnet.DCEast, o); got != eastUp {
					t.Errorf("%s: dc-east<->%s reachable=%v, want %v", label, o, got, eastUp)
				}
			}
		}
	}
	cases := []struct {
		elapsed        time.Duration
		asiaUp, eastUp bool
	}{
		{30 * time.Second, true, true},
		{2 * time.Minute, false, true},   // asia killed
		{4 * time.Minute, true, true},    // asia restarted
		{330 * time.Second, true, false}, // east inside its window
		{7 * time.Minute, true, true},    // window closed itself
	}
	for _, c := range cases {
		// Resumed world: catch-up pass applies past events synchronously.
		net := driveTo(t, s, c.elapsed, &fakeClock{})
		check(fmt.Sprintf("resumed@%v", c.elapsed), net, c.asiaUp, c.eastUp)

		// Lived world: timers fire as the sim drains up to elapsed.
		start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
		sim := vtime.NewSim(start)
		lived := simnet.DefaultTopology(1)
		if err := s.Drive(sim, start, World{Net: lived}, nil); err != nil {
			t.Fatal(err)
		}
		el := c.elapsed
		sim.Go(func() { sim.Sleep(el) })
		sim.Wait()
		check(fmt.Sprintf("lived@%v", c.elapsed), lived, c.asiaUp, c.eastUp)
	}
}

// TestDriveRejectsUnknownAgent checks skew events name real agents.
func TestDriveRejectsUnknownAgent(t *testing.T) {
	s := &Schedule{Events: []Event{{Kind: KindSkew, Agent: "ghost", At: time.Second, Delta: time.Second}}}
	mustValidate(t, s)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sim := vtime.NewSim(start)
	err := s.Drive(sim, start, World{Net: simnet.DefaultTopology(1)}, nil)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown agent accepted: %v", err)
	}
}

// TestDiskFaultArmsInjector checks a diskfault event arms the named
// site's injector at its offset, that a resumed world's catch-up pass
// does not double-arm (Arm dedups identical unspent faults), and that
// an unknown disk site is a Drive-time error like skew's unknown agent.
func TestDiskFaultArmsInjector(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindDiskFault, Site: "term", Fault: "torn", At: time.Minute},
	}}
	mustValidate(t, s)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	inj := diskfault.New(nil)
	sim := vtime.NewSim(start)
	w := World{Net: simnet.DefaultTopology(1), Disks: map[string]*diskfault.Injector{"term": inj}}
	if err := s.Drive(sim, start, w, nil); err != nil {
		t.Fatal(err)
	}
	sim.Go(func() { sim.Sleep(2 * time.Minute) })
	sim.Wait()
	if n := inj.Armed(); n != 1 {
		t.Fatalf("armed faults = %d, want 1", n)
	}

	// Resume: a second Drive over the same injector (the catch-up pass
	// replays the past event) must not arm a duplicate.
	sim2 := vtime.NewSim(start.Add(2 * time.Minute))
	if err := s.Drive(sim2, start, w, nil); err != nil {
		t.Fatal(err)
	}
	sim2.Wait()
	if n := inj.Armed(); n != 1 {
		t.Fatalf("after resume, armed faults = %d, want 1 (double-armed)", n)
	}

	// An unknown disk site fails Drive.
	ghost := &Schedule{Events: []Event{{Kind: KindDiskFault, Site: "wal", Fault: "torn", At: time.Second}}}
	mustValidate(t, ghost)
	sim3 := vtime.NewSim(start)
	err := ghost.Drive(sim3, start, World{Net: simnet.DefaultTopology(1), Disks: w.Disks}, nil)
	if err == nil || !strings.Contains(err.Error(), "wal") {
		t.Fatalf("unknown disk site accepted: %v", err)
	}
}

// TestDiskFaultPathOverride checks World.DiskPaths redirects an armed
// fault at the site's real file name: a checkpoint journal lives
// wherever the operator pointed -checkpoint, which need not contain
// the site table's generic "checkpoint" substring.
func TestDiskFaultPathOverride(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindDiskFault, Site: "checkpoint", Fault: "enospc", At: time.Minute},
	}}
	mustValidate(t, s)
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	inj := diskfault.New(nil)
	sim := vtime.NewSim(start)
	w := World{
		Net:       simnet.DefaultTopology(1),
		Disks:     map[string]*diskfault.Injector{"checkpoint": inj},
		DiskPaths: map[string]string{"checkpoint": "journal.ckpt"},
	}
	if err := s.Drive(sim, start, w, nil); err != nil {
		t.Fatal(err)
	}
	sim.Go(func() { sim.Sleep(2 * time.Minute) })
	sim.Wait()

	dir := t.TempDir()
	f, err := inj.FS().OpenFile(filepath.Join(dir, "journal.ckpt"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write to the overridden path succeeded; fault still targets the site table's substring")
	}
}

// TestValidateDiskFaultEvents checks diskfault field validation.
func TestValidateDiskFaultEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown site", Event{Kind: KindDiskFault, Site: "floppy", Fault: "torn"}, "unknown disk site"},
		{"unknown fault", Event{Kind: KindDiskFault, Site: "wal", Fault: "gremlin"}, "unknown fault kind"},
		{"with window", Event{Kind: KindDiskFault, Site: "wal", Fault: "torn", At: time.Second, Until: 2 * time.Second}, "instantaneous"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.ev}}
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
