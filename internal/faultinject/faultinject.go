// Package faultinject provides a composable, deterministic
// fault-injecting service.Service middleware for hardening and drilling
// the live-probing path.
//
// The paper's month-long campaigns survived agent failures, API errors
// and transient partitions ("failed reads are dropped, but accounted");
// faultinject lets a campaign rehearse those conditions on demand:
// configurable per-operation error rates, injected latency spikes,
// timeout simulation (the operation stalls, then fails), truncated read
// responses, scheduled outage windows during which every operation
// fails, and overload sheds a chaos schedule starts and stops.
//
// Every fault decision is keyed deterministic randomness (detrand): a
// write's draws key off its client-supplied post ID and per-ID attempt
// number, a read's off the reader label and that reader's operation
// counter. Same seed, same operations — same faults, regardless of
// goroutine interleaving, which keeps fault-injected campaigns
// bit-reproducible under the virtual-time simulator.
package faultinject

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/obs"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// ErrInjected marks every error produced by the injector, so callers
// (and tests) can distinguish injected faults from real ones with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Outage is a scheduled window, relative to the injector's start, during
// which every operation fails.
type Outage struct {
	// Start and End bound the window: operations invoked at offset t
	// with Start <= t < End fail.
	Start, End time.Duration
}

// Config declares the fault mix. The zero value injects nothing.
// Overloads are not part of it: a chaos schedule's overload events
// start and stop them through Injector.Shed.
type Config struct {
	// Seed keys every fault decision; campaigns reuse their simulation
	// seed so one number reproduces the whole run.
	Seed int64
	// WriteFailRate and ReadFailRate are per-operation probabilities of
	// an immediate injected error, in [0, 1].
	WriteFailRate float64
	ReadFailRate  float64
	// LatencyRate is the probability an operation is delayed by a spike
	// before proceeding normally.
	LatencyRate float64
	// Latency is the mean spike size; each spike is sampled uniformly in
	// [0.5*Latency, 1.5*Latency).
	Latency time.Duration
	// TimeoutRate is the probability an operation stalls for Timeout and
	// then fails — the shape of a client-side deadline expiry.
	TimeoutRate float64
	// Timeout is the stall duration (default 5s when TimeoutRate > 0).
	Timeout time.Duration
	// TruncateReadRate is the probability a read succeeds but returns
	// only a prefix of the true response — a partial read. Truncated
	// reads are indistinguishable from stale ones to a black-box agent,
	// so this knob quantifies how collection faults can bias anomaly
	// prevalence if not controlled for.
	TruncateReadRate float64
	// Outages are scheduled full-failure windows.
	Outages []Outage
	// StartAt anchors the outage window offsets. The zero value falls
	// back to the clock's Now at construction, which is right for live
	// services; campaigns pin it to the campaign epoch so a world rebuilt
	// mid-campaign (resume) keeps the same absolute windows.
	StartAt time.Time
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.WriteFailRate > 0 || c.ReadFailRate > 0 || c.LatencyRate > 0 ||
		c.TimeoutRate > 0 || c.TruncateReadRate > 0 || len(c.Outages) > 0
}

// Validate checks rates and outage windows.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"write_fail_rate", c.WriteFailRate},
		{"read_fail_rate", c.ReadFailRate},
		{"latency_rate", c.LatencyRate},
		{"timeout_rate", c.TimeoutRate},
		{"truncate_read_rate", c.TruncateReadRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faultinject: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if c.LatencyRate > 0 && c.Latency <= 0 {
		return fmt.Errorf("faultinject: latency_rate %v needs a positive latency", c.LatencyRate)
	}
	for _, o := range c.Outages {
		if o.Start < 0 || o.End <= o.Start {
			return fmt.Errorf("faultinject: outage window [%v, %v) is empty or negative", o.Start, o.End)
		}
	}
	return nil
}

// Stats counts injected faults by kind.
type Stats struct {
	WriteFailures    int
	ReadFailures     int
	LatencySpikes    int
	Timeouts         int
	TruncatedReads   int
	OutageFailures   int
	OverloadFailures int
}

// Injector wraps a Service with the configured fault mix.
type Injector struct {
	inner service.Service
	clock vtime.Clock
	cfg   Config
	start time.Time

	mu       sync.Mutex
	round    uint64            // current test ID (0 outside campaigns)
	readSeq  map[string]uint64 // per-(round, reader) read counter
	writeSeq map[string]uint64 // per-(round, post-ID) attempt counter
	sheds    []*shed           // overloads in force
	metrics  injectorMetrics
}

// shed is one overload in force: operations from its sites fail at rate.
type shed struct {
	sites []simnet.Site
	rate  float64
}

// injectorMetrics are the injected-fault counters, labeled by kind;
// Stats reads them back. The handles are always non-nil: New
// initializes them from a nil scope (live, unregistered) and Instrument
// rebinds them to a registry.
type injectorMetrics struct {
	writeFailures    *obs.Counter
	readFailures     *obs.Counter
	latencySpikes    *obs.Counter
	timeouts         *obs.Counter
	truncatedReads   *obs.Counter
	outageFailures   *obs.Counter
	overloadFailures *obs.Counter
}

func newInjectorMetrics(sc *obs.Scope) injectorMetrics {
	kind := func(k string) *obs.Counter {
		return sc.With("kind", k).Counter("injected_total", "Faults injected, by kind.")
	}
	return injectorMetrics{
		writeFailures:    kind("write_failure"),
		readFailures:     kind("read_failure"),
		latencySpikes:    kind("latency_spike"),
		timeouts:         kind("timeout"),
		truncatedReads:   kind("truncated_read"),
		outageFailures:   kind("outage_failure"),
		overloadFailures: kind("overload_failure"),
	}
}

var _ service.Service = (*Injector)(nil)

// New wraps inner with cfg over the given clock. It panics on an invalid
// config; call cfg.Validate first when the config comes from user input.
func New(inner service.Service, clock vtime.Clock, cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.TimeoutRate > 0 && cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	start := cfg.StartAt
	if start.IsZero() {
		start = clock.Now()
	}
	return &Injector{
		inner:    inner,
		clock:    clock,
		cfg:      cfg,
		start:    start,
		readSeq:  make(map[string]uint64),
		writeSeq: make(map[string]uint64),
		metrics:  newInjectorMetrics(nil),
	}
}

// Instrument registers the injector's fault counters under sc
// (injected_total, labeled by kind). Call before the first operation; a
// nil scope leaves the injector on live unregistered metrics.
func (in *Injector) Instrument(sc *obs.Scope) {
	in.mu.Lock()
	in.metrics = newInjectorMetrics(sc)
	in.mu.Unlock()
}

// Name returns the wrapped service's name.
func (in *Injector) Name() string { return in.inner.Name() }

// Stats returns a snapshot of injected-fault counts.
func (in *Injector) Stats() Stats {
	m := &in.metrics
	return Stats{
		WriteFailures:    int(m.writeFailures.Value()),
		ReadFailures:     int(m.readFailures.Value()),
		LatencySpikes:    int(m.latencySpikes.Value()),
		Timeouts:         int(m.timeouts.Value()),
		TruncatedReads:   int(m.truncatedReads.Value()),
		OutageFailures:   int(m.outageFailures.Value()),
		OverloadFailures: int(m.overloadFailures.Value()),
	}
}

// Outage reports whether an outage window is active now and, if so, how
// long until it ends. Servers use the remaining duration as a
// Retry-After hint on 503 responses.
func (in *Injector) Outage() (active bool, remaining time.Duration) {
	t := in.clock.Since(in.start)
	for _, o := range in.cfg.Outages {
		if t >= o.Start && t < o.End {
			return true, o.End - t
		}
	}
	return false, 0
}

// Shed makes the injector shed rate of the operations issued from sites
// until the returned stop is called — the server-side shape of an
// overloaded data center's admission queue overflowing. Where several
// sheds cover a site, the highest rate applies. Chaos overload events
// drive it.
func (in *Injector) Shed(sites []simnet.Site, rate float64) (stop func()) {
	s := &shed{sites: sites, rate: rate}
	in.mu.Lock()
	in.sheds = append(in.sheds, s)
	in.mu.Unlock()
	return func() {
		in.mu.Lock()
		in.sheds = slices.DeleteFunc(in.sheds, func(o *shed) bool { return o == s })
		in.mu.Unlock()
	}
}

// shedRate returns the shed probability applying to an operation from
// the site now (0 when no shed covers it).
func (in *Injector) shedRate(from simnet.Site) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	rate := 0.0
	for _, s := range in.sheds {
		if s.rate > rate && slices.Contains(s.sites, from) {
			rate = s.rate
		}
	}
	return rate
}

// BeginTest scopes the injector's operation counters to test id: the
// per-post attempt and per-reader read counters restart, making each
// test's fault draws a function of (seed, test ID, that test's own
// operations). Idempotent per id. Fault stats keep accumulating — they
// are observability, not draw state.
func (in *Injector) BeginTest(id int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.round == uint64(id) {
		return
	}
	in.round = uint64(id)
	in.readSeq = make(map[string]uint64)
	in.writeSeq = make(map[string]uint64)
	if ts, ok := in.inner.(service.TestScoped); ok {
		ts.BeginTest(id)
	}
}

// nextWriteAttempt numbers attempts per (round, post ID), so a retried
// write draws fresh (but deterministic) faults scoped to the test.
func (in *Injector) nextWriteAttempt(id string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.writeSeq[id]++
	return in.round<<20 | in.writeSeq[id]
}

// nextReadSeq numbers reads per (round, reader).
func (in *Injector) nextReadSeq(reader string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.readSeq[reader]++
	return in.round<<20 | in.readSeq[reader]
}

// preamble runs the fault checks shared by reads and writes: outage,
// overload shed, timeout stall, latency spike, then the flat failure
// roll. It returns a non-nil error when the operation must fail without
// reaching the inner service.
func (in *Injector) preamble(k detrand.Key, from simnet.Site, op string, failRate float64, failMetric *obs.Counter) error {
	if active, _ := in.Outage(); active {
		in.metrics.outageFailures.Inc()
		return fmt.Errorf("%w: %s during outage window", ErrInjected, op)
	}
	if rate := in.shedRate(from); rate > 0 && k.Str("overload").Float64() < rate {
		in.metrics.overloadFailures.Inc()
		return fmt.Errorf("%w: %s shed by overloaded service", ErrInjected, op)
	}
	if in.cfg.TimeoutRate > 0 && k.Str("timeout").Float64() < in.cfg.TimeoutRate {
		in.metrics.timeouts.Inc()
		in.clock.Sleep(in.cfg.Timeout)
		return fmt.Errorf("%w: %s timed out after %v", ErrInjected, op, in.cfg.Timeout)
	}
	if in.cfg.LatencyRate > 0 && k.Str("spike").Float64() < in.cfg.LatencyRate {
		in.metrics.latencySpikes.Inc()
		f := 0.5 + k.Str("spikesize").Float64()
		in.clock.Sleep(time.Duration(float64(in.cfg.Latency) * f))
	}
	if failRate > 0 && k.Str("fail").Float64() < failRate {
		failMetric.Inc()
		return fmt.Errorf("%w: %s failure", ErrInjected, op)
	}
	return nil
}

// Write publishes p, subject to the configured faults. A failed write
// never reaches the inner service, mirroring a request lost before the
// server.
func (in *Injector) Write(from simnet.Site, p service.Post) error {
	attempt := in.nextWriteAttempt(p.ID)
	k := detrand.NewKey(in.cfg.Seed, "fi-write").Str(p.ID).Uint(attempt)
	if err := in.preamble(k, from, "write", in.cfg.WriteFailRate, in.metrics.writeFailures); err != nil {
		return err
	}
	return in.inner.Write(from, p)
}

// Read lists posts, subject to the configured faults. Truncation applies
// after a successful inner read, returning a strict prefix with its
// capacity cut, so an append above it cannot write into a shared result.
func (in *Injector) Read(from simnet.Site, reader string) ([]service.Post, error) {
	seq := in.nextReadSeq(reader)
	k := detrand.NewKey(in.cfg.Seed, "fi-read").Str(reader).Uint(seq)
	if err := in.preamble(k, from, "read", in.cfg.ReadFailRate, in.metrics.readFailures); err != nil {
		return nil, err
	}
	posts, err := in.inner.Read(from, reader)
	if err != nil {
		return nil, err
	}
	if in.cfg.TruncateReadRate > 0 && len(posts) > 0 &&
		k.Str("truncate").Float64() < in.cfg.TruncateReadRate {
		in.metrics.truncatedReads.Inc()
		keep := int(k.Str("keep").Intn(int64(len(posts))))
		posts = posts[:keep:keep] // the rest may be other readers' posts
	}
	return posts, nil
}

// Reset resets the inner service. Fault counters persist (they are
// campaign-wide observability); operation sequence numbers are scoped
// to tests by BeginTest, so each test's fault schedule is a function of
// (seed, test ID, that test's operations) alone.
func (in *Injector) Reset() error { return in.inner.Reset() }
