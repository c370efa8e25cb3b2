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
//	overload(site, at..until)   shed a fraction of the requests from
//	                            client sites routed to site, through the
//	                            lane's faultinject middleware
//	kill(site, at[..until])     crash the node at site: sever it from
//	                            every peer; until omitted means "until
//	                            an explicit restart"
//	restart(site, at)           bring the node at site back: restore
//	                            all its links
//	diskfault(site, fault, at)  arm one storage fault at a disk site
//	                            ("wal", "term", "snapshot",
//	                            "checkpoint"); fault is a diskfault kind
//	                            ("torn", "fsync-gate", "bit-flip",
//	                            "enospc", "dirsync-omit", "crash-rename")
//
// A consvc -disk-fault spec, site:kind[:afterN], is the diskfault event
// in flag form: ParseDiskFault reads it, and Event.DiskFault builds the
// fault both front ends arm.
//
// kill/restart are the sim-level half of the cluster crash story: on
// the virtual clock a killed node is one no peer can reach (replication
// stalls, its replica goes stale) and a restarted node rejoins and
// converges via the store's retry machinery. The process-level half —
// SIGKILL of a real consvc and recovery from its WAL — lives in the
// cmd/consvc supervisor tests and scripts/cluster_smoke.sh.
package chaos

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
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
	// "snapshot" for a log compaction's temp file, "checkpoint").
	Fault string
	// After is how many matching operations the armed fault lets pass
	// before it fires — the afterN of a -disk-fault spec; profiles have
	// no key for it.
	After int
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
		if !slices.Contains(kinds, e.Kind) {
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, e.Kind)
		}
		if err := e.validate(); err != nil {
			return fmt.Errorf("chaos: event %d (%s): %w", i, e.Kind, err)
		}
	}
	return nil
}

// kinds lists every event kind.
var kinds = []Kind{KindPartition, KindHeal, KindSkew, KindOutage, KindOverload, KindKill, KindRestart, KindDiskFault}

// validate checks the fields and window of an event of a known kind.
func (e Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("negative offset %v", e.At)
	}
	switch e.Kind {
	case KindPartition, KindHeal:
		if e.A == "" || e.B == "" || e.A == e.B {
			return fmt.Errorf("needs two distinct sites, got %q and %q", e.A, e.B)
		}
	case KindSkew:
		if e.Agent == "" {
			return errors.New("needs an agent label")
		}
		if e.Delta == 0 {
			return errors.New("zero delta is a no-op")
		}
	case KindDiskFault:
		if _, ok := diskfault.Sites[string(e.Site)]; !ok {
			return fmt.Errorf("unknown disk site %q (want one of %v)", e.Site, diskfault.SiteNames())
		}
		if !diskfault.Kind(e.Fault).Valid() {
			return fmt.Errorf("unknown fault kind %q (want one of %v)", e.Fault, diskfault.Kinds())
		}
	default:
		if e.Site == "" {
			return errors.New("needs a site")
		}
	}
	switch {
	case e.Until != 0 && (e.Kind == KindHeal || e.Kind == KindRestart):
		return fmt.Errorf("%s is instantaneous, drop until", e.Kind)
	case e.Until != 0 && e.Kind == KindDiskFault:
		return errors.New("arming is instantaneous, drop until")
	case e.Until == 0 && (e.Kind == KindOutage || e.Kind == KindOverload):
		return errors.New("needs an end (until)")
	case e.Kind == KindOverload && (e.Rate <= 0 || e.Rate > 1):
		return fmt.Errorf("rate %v outside (0, 1]", e.Rate)
	case e.Until != 0 && e.Until <= e.At && e.Kind != KindSkew:
		return fmt.Errorf("window [%v, %v) is empty or inverted", e.At, e.Until)
	}
	return nil
}

// end resolves when the window event i opens ends: its own Until if
// set, else the earliest later event closing it — a heal of the same
// link for a partition, a restart of the same site for a kill — else
// never (-1).
func (s *Schedule) end(i int) time.Duration {
	e := s.Events[i]
	if e.Until != 0 {
		return e.Until
	}
	end := time.Duration(-1)
	for _, c := range s.Events {
		closes := e.Kind == KindPartition && c.Kind == KindHeal &&
			(c.A == e.A && c.B == e.B || c.A == e.B && c.B == e.A) ||
			e.Kind == KindKill && c.Kind == KindRestart && c.Site == e.Site
		if closes && c.At >= e.At && (end < 0 || c.At < end) {
			end = c.At
		}
	}
	return end
}

// ActiveAt returns sorted labels of the chaos windows in force at the
// given campaign offset — a pure function of the schedule, so lived and
// resumed worlds annotate traces identically. Instantaneous events
// (heal, skew-clock, restart, diskfault) produce no window.
func (s *Schedule) ActiveAt(offset time.Duration) []string {
	if s.Empty() {
		return nil
	}
	var out []string
	for i, e := range s.Events {
		switch e.Kind {
		case KindPartition, KindOutage, KindOverload, KindKill:
		default:
			continue
		}
		if end := s.end(i); offset < e.At || end >= 0 && offset >= end {
			continue
		}
		if e.Kind == KindPartition {
			out = append(out, fmt.Sprintf("partition(%s,%s)", min(e.A, e.B), max(e.A, e.B)))
		} else {
			out = append(out, fmt.Sprintf("%s(%s)", e.Kind, e.Site))
		}
	}
	sort.Strings(out)
	return out
}

// ParseDiskFault parses a drill spec of the form "site:kind[:afterN]" —
// e.g. "term:fsync-gate" or "wal:torn:3", the consvc -disk-fault form —
// into the diskfault event it describes.
func ParseDiskFault(spec string) (Event, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Event{}, fmt.Errorf("diskfault: spec %q: want site:kind[:afterN]", spec)
	}
	if _, ok := diskfault.Sites[parts[0]]; !ok {
		return Event{}, fmt.Errorf("diskfault: spec %q: unknown site %q (known: %s)",
			spec, parts[0], strings.Join(diskfault.SiteNames(), ", "))
	}
	if !diskfault.Kind(parts[1]).Valid() {
		return Event{}, fmt.Errorf("diskfault: spec %q: unknown fault kind %q", spec, parts[1])
	}
	e := Event{Kind: KindDiskFault, Site: simnet.Site(parts[0]), Fault: parts[1]}
	if len(parts) == 3 {
		after, err := strconv.Atoi(parts[2])
		if err != nil || after < 0 {
			return Event{}, fmt.Errorf("diskfault: spec %q: after must be a non-negative integer", spec)
		}
		e.After = after
	}
	return e, nil
}

// DiskFault is the storage fault a diskfault event arms: aimed at its
// site's path, or at paths' override for the site, skipping After
// matching operations, sticky for ENOSPC — a full disk stays full — and
// seeded by seed, which picks where a torn write cuts and which bit a
// flip inverts.
func (e Event) DiskFault(paths map[string]string, seed uint64) diskfault.Fault {
	path, ok := paths[string(e.Site)]
	if !ok {
		path = diskfault.Sites[string(e.Site)]
	}
	kind := diskfault.Kind(e.Fault)
	return diskfault.Fault{Kind: kind, Path: path, After: e.After, Sticky: kind == diskfault.KindENOSPC, Seed: seed}
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
	// Service is the lane's fault-injecting service middleware, which
	// overload events shed through; a schedule with an overload event
	// and no Service is a Drive-time error.
	Service *faultinject.Injector
	// Routing maps each client site to the data center serving it: an
	// overload of a data center sheds the client sites routed there, and
	// one of a data center no client site is routed to is a Drive-time
	// error.
	Routing map[simnet.Site]simnet.Site
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
	apply func()
}

// Drive installs the schedule on a freshly built world — it is the one
// place a campaign offset becomes a fault: interventions whose offset
// has already passed (a world rebuilt mid-campaign on resume) are
// applied synchronously, in offset order, before Drive returns; future
// ones are scheduled as virtual-clock timers. start is the campaign
// epoch the event offsets are relative to; clock.Now() may be later on
// resume. Call Drive before spawning the runner actor so same-instant
// timers fire in a deterministic order relative to it: an operation
// issued at the instant a window opens sees it open, one issued at the
// instant it ends sees it closed.
func (s *Schedule) Drive(clock vtime.Clock, start time.Time, w World, sc *obs.Scope) error {
	if s.Empty() {
		return nil
	}
	counters := make(map[Kind]*obs.Counter, len(kinds))
	for _, k := range kinds {
		counters[k] = sc.With("kind", string(k)).Counter("events_applied_total", "Chaos events applied, by kind.")
	}
	var acts []action
	// add schedules f at offset at, counted as an applied event of kind
	// (uncounted when kind is empty).
	add := func(at time.Duration, kind Kind, f func()) {
		c := counters[kind]
		acts = append(acts, action{at: at, apply: func() {
			f()
			if c != nil {
				c.Inc()
			}
		}})
	}
	// isolate and rejoin sever and restore every link of one site.
	eachLink := func(site simnet.Site, f func(a, b simnet.Site)) func() {
		return func() {
			for _, o := range w.Net.Sites() {
				if o != site {
					f(site, o)
				}
			}
		}
	}
	isolate := func(site simnet.Site) func() { return eachLink(site, w.Net.Partition) }
	rejoin := func(site simnet.Site) func() { return eachLink(site, w.Net.Heal) }
	for _, e := range s.Events {
		switch e.Kind {
		case KindPartition:
			add(e.At, KindPartition, func() { w.Net.Partition(e.A, e.B) })
			if e.Until != 0 {
				// Explicit window: the end is ours to heal. Open-ended
				// partitions are healed by their own heal events.
				add(e.Until, KindHeal, func() { w.Net.Heal(e.A, e.B) })
			}
		case KindHeal:
			add(e.At, KindHeal, func() { w.Net.Heal(e.A, e.B) })
		case KindOutage:
			add(e.At, KindOutage, isolate(e.Site))
			add(e.Until, KindHeal, rejoin(e.Site))
		case KindSkew:
			c, ok := w.Clocks[e.Agent]
			if !ok {
				return fmt.Errorf("chaos: skew-clock names unknown agent %q", e.Agent)
			}
			add(e.At, KindSkew, func() { c.SetSkew(c.Skew() + e.Delta) })
		case KindKill:
			add(e.At, KindKill, isolate(e.Site))
			if e.Until != 0 {
				// Explicit window: the end is ours. Open-ended kills are
				// healed by their own restart events.
				add(e.Until, KindRestart, rejoin(e.Site))
			}
		case KindRestart:
			add(e.At, KindRestart, rejoin(e.Site))
		case KindOverload:
			if w.Service == nil {
				return fmt.Errorf("chaos: overload(%s) needs a fault-injecting service", e.Site)
			}
			var sites []simnet.Site
			for from, dc := range w.Routing {
				if dc == e.Site {
					sites = append(sites, from)
				}
			}
			if len(sites) == 0 {
				return fmt.Errorf("chaos: overload(%s) names a data center no client site is routed to", e.Site)
			}
			// The shed lasts the window; its end is no event of its own.
			var stop func()
			add(e.At, KindOverload, func() { stop = w.Service.Shed(sites, e.Rate) })
			add(e.Until, "", func() { stop() })
		case KindDiskFault:
			inj, ok := w.Disks[string(e.Site)]
			if !ok {
				return fmt.Errorf("chaos: diskfault names unknown disk site %q", e.Site)
			}
			// The event's offset seeds the fault (which byte a torn write
			// cuts at, which bit a flip targets), so the same schedule
			// replays the identical fault. Arm dedups an identical unspent
			// fault, so a lane world rebuilt mid-campaign (resume) does not
			// double-arm.
			f := e.DiskFault(w.DiskPaths, uint64(e.At))
			add(e.At, KindDiskFault, func() { _ = inj.Arm(f) })
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
		clock.AfterFunc(a.at-elapsed, a.apply)
	}
	return nil
}
