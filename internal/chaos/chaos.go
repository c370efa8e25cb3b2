// Package chaos turns a declarative timeline of infrastructure events —
// WAN partitions, data-center outages, clock steps, overload windows —
// into deterministic interventions on a simulated campaign world.
//
// The paper's measurements lived through exactly this weather: a
// transient Tokyo partition during the Facebook Group campaign, API
// throttling, month-long runs surviving agent restarts. A chaos
// schedule scripts that weather so anomaly rates can be observed
// responding to it: every event fires at a fixed offset on the virtual
// clock, so the same profile and seed replay the same chaos, and a
// campaign resumed mid-schedule rebuilds the same world state the
// uninterrupted run had.
//
// Events and their fields:
//
//	partition(a, b, at..until)  sever the a<->b link; until omitted
//	                            means "until an explicit heal"
//	heal(a, b, at)              restore the a<->b link
//	outage(site, at..until)     sever site from every other site
//	skew-clock(agent, at, ±d)   step one agent's clock by d, permanently
//	overload(site, at..until)   shed a fraction of requests routed to
//	                            site (compiled into faultinject windows)
//	kill(site, at[..until])     crash the node at site: sever it from
//	                            every peer; until omitted means "until
//	                            an explicit restart"
//	restart(site, at)           bring the node at site back: restore
//	                            all its links
//	diskfault(site, fault, at)  arm one storage fault at a disk site
//	                            ("wal", "term", "snapshot", "store",
//	                            "checkpoint"); fault is a diskfault kind
//	                            ("torn", "fsync-gate", "bit-flip",
//	                            "enospc", "dirsync-omit", "crash-rename")
//
// kill/restart are the sim-level half of the cluster crash story: on
// the virtual clock a killed node is one no peer can reach (replication
// stalls, its replica goes stale) and a restarted node rejoins and
// converges via the store's retry machinery. The process-level half —
// SIGKILL of a real consvc and recovery from its WAL — lives in the
// cmd/consvc supervisor tests and scripts/cluster_smoke.sh.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/faultinject"
	"conprobe/internal/obs"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// Kind names one chaos event type.
type Kind string

// The supported event kinds.
const (
	KindPartition Kind = "partition"
	KindHeal      Kind = "heal"
	KindSkew      Kind = "skew-clock"
	KindOutage    Kind = "outage"
	KindOverload  Kind = "overload"
	KindKill      Kind = "kill"
	KindRestart   Kind = "restart"
	KindDiskFault Kind = "diskfault"
)

// Event is one scheduled intervention. Offsets are relative to the
// campaign start (not the lane's world-build time, which differs on
// resume).
type Event struct {
	// Kind selects the intervention and which fields below apply.
	Kind Kind
	// At is when the event begins.
	At time.Duration
	// Until ends windowed events (partition, outage, overload, kill).
	// Zero on a partition (kill) means it lasts until an explicit heal
	// (restart), or forever.
	Until time.Duration
	// A and B are the partition/heal link endpoints.
	A, B simnet.Site
	// Site is the outage/overload data center.
	Site simnet.Site
	// Agent is the skewed agent's author label ("agent1", ...).
	Agent string
	// Delta is the (signed) clock step applied by skew-clock.
	Delta time.Duration
	// Rate is the overload shed probability in [0, 1].
	Rate float64
	// Fault is the diskfault kind armed by a diskfault event; Site names
	// the disk site it targets (a diskfault.Sites key: "wal", "term",
	// "snapshot" for a log compaction's temp file, "store", "checkpoint").
	Fault string
}

// Schedule is an ordered chaos timeline.
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule has no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Validate checks every event's fields and window.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative offset %v", i, e.Kind, e.At)
		}
		windowed := func() error {
			if e.Until != 0 && e.Until <= e.At {
				return fmt.Errorf("chaos: event %d (%s): window [%v, %v) is empty or inverted", i, e.Kind, e.At, e.Until)
			}
			return nil
		}
		switch e.Kind {
		case KindPartition:
			if e.A == "" || e.B == "" || e.A == e.B {
				return fmt.Errorf("chaos: event %d (partition): needs two distinct sites, got %q and %q", i, e.A, e.B)
			}
			if err := windowed(); err != nil {
				return err
			}
		case KindHeal:
			if e.A == "" || e.B == "" || e.A == e.B {
				return fmt.Errorf("chaos: event %d (heal): needs two distinct sites, got %q and %q", i, e.A, e.B)
			}
			if e.Until != 0 {
				return fmt.Errorf("chaos: event %d (heal): heal is instantaneous, drop until", i)
			}
		case KindOutage:
			if e.Site == "" {
				return fmt.Errorf("chaos: event %d (outage): needs a site", i)
			}
			if e.Until == 0 {
				return fmt.Errorf("chaos: event %d (outage): needs an end (until)", i)
			}
			if err := windowed(); err != nil {
				return err
			}
		case KindSkew:
			if e.Agent == "" {
				return fmt.Errorf("chaos: event %d (skew-clock): needs an agent label", i)
			}
			if e.Delta == 0 {
				return fmt.Errorf("chaos: event %d (skew-clock): zero delta is a no-op", i)
			}
		case KindKill:
			if e.Site == "" {
				return fmt.Errorf("chaos: event %d (kill): needs a site", i)
			}
			if err := windowed(); err != nil {
				return err
			}
		case KindRestart:
			if e.Site == "" {
				return fmt.Errorf("chaos: event %d (restart): needs a site", i)
			}
			if e.Until != 0 {
				return fmt.Errorf("chaos: event %d (restart): restart is instantaneous, drop until", i)
			}
		case KindDiskFault:
			if _, ok := diskfault.Sites[string(e.Site)]; !ok {
				return fmt.Errorf("chaos: event %d (diskfault): unknown disk site %q (want one of %v)", i, e.Site, diskfault.SiteNames())
			}
			if !diskfault.Kind(e.Fault).Valid() {
				return fmt.Errorf("chaos: event %d (diskfault): unknown fault kind %q (want one of %v)", i, e.Fault, diskfault.Kinds())
			}
			if e.Until != 0 {
				return fmt.Errorf("chaos: event %d (diskfault): arming is instantaneous, drop until", i)
			}
		case KindOverload:
			if e.Site == "" {
				return fmt.Errorf("chaos: event %d (overload): needs a site", i)
			}
			if e.Until == 0 {
				return fmt.Errorf("chaos: event %d (overload): needs an end (until)", i)
			}
			if e.Rate <= 0 || e.Rate > 1 {
				return fmt.Errorf("chaos: event %d (overload): rate %v outside (0, 1]", i, e.Rate)
			}
			if err := windowed(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// linkLabel renders a canonical a<b pair label.
func linkLabel(a, b simnet.Site) string {
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("partition(%s,%s)", a, b)
}

// partitionEnd resolves when the partition starting at event i ends: its
// own Until if set, else the earliest later heal of the same link, else
// forever (-1).
func (s *Schedule) partitionEnd(i int) time.Duration {
	e := s.Events[i]
	if e.Until != 0 {
		return e.Until
	}
	end := time.Duration(-1)
	for _, h := range s.Events {
		if h.Kind != KindHeal || h.At < e.At {
			continue
		}
		if (h.A == e.A && h.B == e.B) || (h.A == e.B && h.B == e.A) {
			if end < 0 || h.At < end {
				end = h.At
			}
		}
	}
	return end
}

// killEnd resolves when the kill starting at event i ends: its own
// Until if set, else the earliest later restart of the same site, else
// forever (-1).
func (s *Schedule) killEnd(i int) time.Duration {
	e := s.Events[i]
	if e.Until != 0 {
		return e.Until
	}
	end := time.Duration(-1)
	for _, r := range s.Events {
		if r.Kind != KindRestart || r.At < e.At || r.Site != e.Site {
			continue
		}
		if end < 0 || r.At < end {
			end = r.At
		}
	}
	return end
}

// ActiveAt returns sorted labels of the chaos windows in force at the
// given campaign offset — a pure function of the schedule, so lived and
// resumed worlds annotate traces identically. Instantaneous events
// (heal, skew-clock) produce no window.
func (s *Schedule) ActiveAt(offset time.Duration) []string {
	if s.Empty() {
		return nil
	}
	var out []string
	for i, e := range s.Events {
		switch e.Kind {
		case KindPartition:
			end := s.partitionEnd(i)
			if offset >= e.At && (end < 0 || offset < end) {
				out = append(out, linkLabel(e.A, e.B))
			}
		case KindOutage:
			if offset >= e.At && offset < e.Until {
				out = append(out, fmt.Sprintf("outage(%s)", e.Site))
			}
		case KindOverload:
			if offset >= e.At && offset < e.Until {
				out = append(out, fmt.Sprintf("overload(%s)", e.Site))
			}
		case KindKill:
			end := s.killEnd(i)
			if offset >= e.At && (end < 0 || offset < end) {
				out = append(out, fmt.Sprintf("kill(%s)", e.Site))
			}
		}
	}
	sort.Strings(out)
	return out
}

// Overloads compiles the schedule's overload events into faultinject
// shed windows scoped to the client sites the routing table sends to
// the overloaded data center.
func (s *Schedule) Overloads(routing map[simnet.Site]simnet.Site) []faultinject.Overload {
	if s.Empty() {
		return nil
	}
	var out []faultinject.Overload
	for _, e := range s.Events {
		if e.Kind != KindOverload {
			continue
		}
		var sites []simnet.Site
		for from, dc := range routing {
			if dc == e.Site {
				sites = append(sites, from)
			}
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		out = append(out, faultinject.Overload{
			Start: e.At, End: e.Until, Sites: sites, Rate: e.Rate,
		})
	}
	return out
}

// AdjustableClock is the per-agent clock surface skew-clock events
// drive (clocksync.SkewedClock implements it).
type AdjustableClock interface {
	Skew() time.Duration
	SetSkew(time.Duration)
}

// World is the mutable campaign state a Driver intervenes on.
type World struct {
	// Net is the lane's network; partitions and outages act on it.
	Net *simnet.Network
	// Clocks maps agent author labels to their adjustable clocks.
	Clocks map[string]AdjustableClock
	// Disks maps disk site names (diskfault.Sites keys) to the fault
	// injectors diskfault events arm. Absent sites make a schedule with
	// diskfault events a Drive-time error — mirroring skew-clock's
	// unknown-agent error — so a misdirected fault can never silently
	// target nothing.
	Disks map[string]*diskfault.Injector
	// DiskPaths overrides, per site, the path substring an armed fault
	// matches; sites not listed fall back to diskfault.Sites. Needed
	// when the real file's name is operator-chosen — e.g. the
	// checkpoint journal lives wherever -checkpoint points, not at a
	// file named "checkpoint".
	DiskPaths map[string]string
}

// action is one compiled intervention at a fixed offset.
type action struct {
	at    time.Duration
	kind  Kind
	apply func()
}

// Drive installs the schedule on a freshly built world: interventions
// whose offset has already passed (a world rebuilt mid-campaign on
// resume) are applied synchronously, in offset order, before Drive
// returns; future ones are scheduled as virtual-clock timers. start is
// the campaign epoch the event offsets are relative to; clock.Now() may
// be later on resume. Call Drive before spawning the runner actor so
// same-instant timers fire in a deterministic order relative to it.
// Overload events are not driven here — they are compiled into
// faultinject windows via Overloads.
func (s *Schedule) Drive(clock vtime.Clock, start time.Time, w World, sc *obs.Scope) error {
	if s.Empty() {
		return nil
	}
	applied := func(k Kind) *obs.Counter {
		return sc.With("kind", string(k)).Counter("events_applied_total", "Chaos events applied, by kind.")
	}
	counters := map[Kind]*obs.Counter{
		KindPartition: applied(KindPartition),
		KindHeal:      applied(KindHeal),
		KindSkew:      applied(KindSkew),
		KindOutage:    applied(KindOutage),
		KindKill:      applied(KindKill),
		KindRestart:   applied(KindRestart),
		KindDiskFault: applied(KindDiskFault),
	}
	var acts []action
	add := func(at time.Duration, kind Kind, f func()) {
		acts = append(acts, action{at: at, kind: kind, apply: func() {
			f()
			counters[kind].Inc()
		}})
	}
	others := func(site simnet.Site) []simnet.Site {
		var out []simnet.Site
		for _, o := range w.Net.Sites() {
			if o != site {
				out = append(out, o)
			}
		}
		return out
	}
	for i, e := range s.Events {
		switch e.Kind {
		case KindPartition:
			a, b := e.A, e.B
			add(e.At, KindPartition, func() { w.Net.Partition(a, b) })
			if end := s.partitionEnd(i); end >= 0 && e.Until != 0 {
				// Explicit window: the end is ours to heal. Open-ended
				// partitions are healed by their own heal events.
				add(end, KindHeal, func() { w.Net.Heal(a, b) })
			}
		case KindHeal:
			a, b := e.A, e.B
			add(e.At, KindHeal, func() { w.Net.Heal(a, b) })
		case KindOutage:
			site := e.Site
			add(e.At, KindOutage, func() {
				for _, o := range others(site) {
					w.Net.Partition(site, o)
				}
			})
			add(e.Until, KindHeal, func() {
				for _, o := range others(site) {
					w.Net.Heal(site, o)
				}
			})
		case KindSkew:
			c, ok := w.Clocks[e.Agent]
			if !ok {
				return fmt.Errorf("chaos: skew-clock names unknown agent %q", e.Agent)
			}
			delta := e.Delta
			add(e.At, KindSkew, func() { c.SetSkew(c.Skew() + delta) })
		case KindKill:
			site := e.Site
			add(e.At, KindKill, func() {
				for _, o := range others(site) {
					w.Net.Partition(site, o)
				}
			})
			if e.Until != 0 {
				// Explicit window: the end is ours. Open-ended kills are
				// healed by their own restart events.
				add(e.Until, KindRestart, func() {
					for _, o := range others(site) {
						w.Net.Heal(site, o)
					}
				})
			}
		case KindRestart:
			site := e.Site
			add(e.At, KindRestart, func() {
				for _, o := range others(site) {
					w.Net.Heal(site, o)
				}
			})
		case KindDiskFault:
			inj, ok := w.Disks[string(e.Site)]
			if !ok {
				return fmt.Errorf("chaos: diskfault names unknown disk site %q", e.Site)
			}
			// The fault's Seed (which byte a torn write cuts at, which bit
			// a flip targets) derives from the event's offset, so the same
			// schedule replays the identical fault.
			path := diskfault.Sites[string(e.Site)]
			if p, ok := w.DiskPaths[string(e.Site)]; ok {
				path = p
			}
			f := diskfault.Fault{
				Kind:   diskfault.Kind(e.Fault),
				Path:   path,
				Sticky: diskfault.Kind(e.Fault) == diskfault.KindENOSPC,
				Seed:   uint64(e.At),
			}
			add(e.At, KindDiskFault, func() {
				// Arm dedups an identical unspent fault, so a lane world
				// rebuilt mid-campaign (resume) does not double-arm.
				_ = inj.Arm(f)
			})
		case KindOverload:
			// Compiled into faultinject windows; nothing to drive.
		}
	}
	// Apply in offset order (stable for ties: schedule order) so a
	// resumed world replays the exact intervention sequence the lived
	// world's timer queue produced.
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	elapsed := clock.Now().Sub(start)
	for _, a := range acts {
		if a.at <= elapsed {
			a.apply()
			continue
		}
		a := a
		clock.AfterFunc(a.at-elapsed, a.apply)
	}
	return nil
}
