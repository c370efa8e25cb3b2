// Package profilecfg loads and saves service profiles as JSON, so
// downstream users can model their own service's topology and
// replication behavior without writing Go (conprobe -profile my.json).
//
// Durations are unit-suffixed strings ("800ms", "2s"); sites must come
// from the simnet topology in use. Example:
//
//	{
//	  "name": "myservice",
//	  "store": {
//	    "mode": "eventual",
//	    "sites": ["dc-west", "dc-europe"],
//	    "propagation_base": "800ms",
//	    "order": "hybrid",
//	    "normalize_after": "2s"
//	  },
//	  "routing": {"oregon": "dc-west", "tokyo": "dc-west", "ireland": "dc-europe"},
//	  "read_flap_prob": 0.01,
//	  "api_delay": "350ms"
//	}
package profilecfg

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"conprobe/internal/chaos"
	"conprobe/internal/faultinject"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/store"
)

// Duration marshals as a unit-suffixed string.
type Duration time.Duration

// MarshalJSON renders "250ms"-style strings.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "250ms"-style strings and bare nanosecond
// numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("profilecfg: parse duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err == nil {
		*d = Duration(n)
		return nil
	}
	return fmt.Errorf("profilecfg: duration must be a string like %q", "250ms")
}

// StoreJSON is the wire form of store.Config.
type StoreJSON struct {
	Mode               string   `json:"mode"` // "strong" | "eventual"
	Sites              []string `json:"sites"`
	Primary            string   `json:"primary,omitempty"`
	PropagationFactor  float64  `json:"propagation_factor,omitempty"`
	PropagationBase    Duration `json:"propagation_base,omitempty"`
	PropagationJitter  Duration `json:"propagation_jitter,omitempty"`
	EpochJitter        Duration `json:"epoch_jitter,omitempty"`
	FastEpochProb      float64  `json:"fast_epoch_prob,omitempty"`
	LocalApplyDelay    Duration `json:"local_apply_delay,omitempty"`
	LocalApplyJitter   Duration `json:"local_apply_jitter,omitempty"`
	Order              string   `json:"order,omitempty"` // "timestamp" | "arrival" | "hybrid"
	NormalizeAfter     Duration `json:"normalize_after,omitempty"`
	HybridEpochProb    float64  `json:"hybrid_epoch_prob,omitempty"`
	TimestampPrecision Duration `json:"timestamp_precision,omitempty"`
	ReverseTies        bool     `json:"reverse_ties,omitempty"`
	RetryInterval      Duration `json:"retry_interval,omitempty"`
}

// SelectionJSON is the wire form of service.Selection.
type SelectionJSON struct {
	FreshFor  Duration `json:"fresh_for,omitempty"`
	Shuffle   float64  `json:"shuffle,omitempty"`
	DropFresh float64  `json:"drop_fresh,omitempty"`
	TopK      int      `json:"top_k,omitempty"`
}

// LinkJSON declares one symmetric topology link a custom profile needs
// beyond the default EC2 topology (e.g. bespoke data centers).
type LinkJSON struct {
	A   string   `json:"a"`
	B   string   `json:"b"`
	RTT Duration `json:"rtt"`
}

// OutageJSON is a scheduled full-failure window, relative to campaign
// start.
type OutageJSON struct {
	Start Duration `json:"start"`
	End   Duration `json:"end"`
}

// FaultInjectionJSON is the wire form of faultinject.Config, letting a
// profile declare a fault drill alongside the service model.
type FaultInjectionJSON struct {
	Seed             int64        `json:"seed,omitempty"`
	WriteFailRate    float64      `json:"write_fail_rate,omitempty"`
	ReadFailRate     float64      `json:"read_fail_rate,omitempty"`
	LatencyRate      float64      `json:"latency_rate,omitempty"`
	Latency          Duration     `json:"latency,omitempty"`
	TimeoutRate      float64      `json:"timeout_rate,omitempty"`
	Timeout          Duration     `json:"timeout,omitempty"`
	TruncateReadRate float64      `json:"truncate_read_rate,omitempty"`
	Outages          []OutageJSON `json:"outages,omitempty"`
}

// Config converts and validates the wire form.
func (fj *FaultInjectionJSON) Config() (faultinject.Config, error) {
	cfg := faultinject.Config{
		Seed:             fj.Seed,
		WriteFailRate:    fj.WriteFailRate,
		ReadFailRate:     fj.ReadFailRate,
		LatencyRate:      fj.LatencyRate,
		Latency:          time.Duration(fj.Latency),
		TimeoutRate:      fj.TimeoutRate,
		Timeout:          time.Duration(fj.Timeout),
		TruncateReadRate: fj.TruncateReadRate,
	}
	for _, o := range fj.Outages {
		cfg.Outages = append(cfg.Outages, faultinject.Outage{
			Start: time.Duration(o.Start), End: time.Duration(o.End),
		})
	}
	if err := cfg.Validate(); err != nil {
		return faultinject.Config{}, err
	}
	return cfg, nil
}

// ChaosEventJSON is the wire form of one chaos.Event. Kind selects the
// event; the other fields apply per kind (see package chaos).
type ChaosEventJSON struct {
	Kind  string   `json:"kind"`
	At    Duration `json:"at"`
	Until Duration `json:"until,omitempty"`
	A     string   `json:"a,omitempty"`
	B     string   `json:"b,omitempty"`
	Site  string   `json:"site,omitempty"`
	Agent string   `json:"agent,omitempty"`
	Delta Duration `json:"delta,omitempty"`
	Rate  float64  `json:"rate,omitempty"`
	Fault string   `json:"fault,omitempty"`
}

// ProfileJSON is the wire form of service.Profile.
type ProfileJSON struct {
	Name         string            `json:"name"`
	Store        StoreJSON         `json:"store"`
	Routing      map[string]string `json:"routing"`
	Selection    *SelectionJSON    `json:"selection,omitempty"`
	ReadFlapProb float64           `json:"read_flap_prob,omitempty"`
	APIDelay     Duration          `json:"api_delay,omitempty"`
	// Topology adds links to the network model for sites the default
	// topology does not know.
	Topology []LinkJSON `json:"topology,omitempty"`
	// FaultInjection optionally declares a fault-injection drill to run
	// against the modeled service.
	FaultInjection *FaultInjectionJSON `json:"fault_injection,omitempty"`
	// Chaos optionally scripts a deterministic timeline of partitions,
	// outages, clock steps, overload windows and node kill/restart
	// events on the campaign clock (offsets relative to campaign start).
	Chaos []ChaosEventJSON `json:"chaos,omitempty"`
}

// ChaosSchedule converts and validates the profile's chaos timeline
// (nil when the profile declares none).
func (pj *ProfileJSON) ChaosSchedule() (*chaos.Schedule, error) {
	if len(pj.Chaos) == 0 {
		return nil, nil
	}
	s := &chaos.Schedule{Events: make([]chaos.Event, len(pj.Chaos))}
	for i, e := range pj.Chaos {
		s.Events[i] = chaos.Event{
			Kind:  chaos.Kind(e.Kind),
			At:    time.Duration(e.At),
			Until: time.Duration(e.Until),
			A:     simnet.Site(e.A),
			B:     simnet.Site(e.B),
			Site:  simnet.Site(e.Site),
			Agent: e.Agent,
			Delta: time.Duration(e.Delta),
			Rate:  e.Rate,
			Fault: e.Fault,
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Link is a resolved topology link.
type Link struct {
	A, B simnet.Site
	RTT  time.Duration
}

// Links returns the profile's extra topology links.
func (pj *ProfileJSON) Links() ([]Link, error) {
	out := make([]Link, 0, len(pj.Topology))
	for _, l := range pj.Topology {
		if l.A == "" || l.B == "" || l.RTT <= 0 {
			return nil, fmt.Errorf("profilecfg: topology link needs a, b and positive rtt: %+v", l)
		}
		out = append(out, Link{A: simnet.Site(l.A), B: simnet.Site(l.B), RTT: time.Duration(l.RTT)})
	}
	return out, nil
}

// Load reads and validates a profile from JSON.
func Load(r io.Reader) (service.Profile, error) {
	l, err := LoadAll(r)
	return l.Profile, err
}

// Loaded bundles everything a profile file can declare.
type Loaded struct {
	Profile service.Profile
	// Links are extra topology links (empty when none declared).
	Links []Link
	// Faults is the declared fault-injection drill (nil when none).
	Faults *faultinject.Config
	// Chaos is the declared chaos timeline (nil when none).
	Chaos *chaos.Schedule
}

// LoadAll reads and validates a complete profile file: the service
// profile plus its extra topology links, optional fault-injection
// config and optional chaos schedule.
func LoadAll(r io.Reader) (Loaded, error) {
	var pj ProfileJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pj); err != nil {
		return Loaded{}, fmt.Errorf("profilecfg: decode: %w", err)
	}
	p, err := pj.Profile()
	if err != nil {
		return Loaded{}, err
	}
	links, err := pj.Links()
	if err != nil {
		return Loaded{}, err
	}
	out := Loaded{Profile: p, Links: links}
	if pj.FaultInjection != nil {
		cfg, err := pj.FaultInjection.Config()
		if err != nil {
			return Loaded{}, fmt.Errorf("profilecfg: %w", err)
		}
		out.Faults = &cfg
	}
	sched, err := pj.ChaosSchedule()
	if err != nil {
		return Loaded{}, fmt.Errorf("profilecfg: %w", err)
	}
	out.Chaos = sched
	return out, nil
}

// Profile converts the wire form into a validated service.Profile.
func (pj *ProfileJSON) Profile() (service.Profile, error) {
	var mode store.Mode
	switch pj.Store.Mode {
	case "strong":
		mode = store.Strong
	case "eventual":
		mode = store.Eventual
	default:
		return service.Profile{}, fmt.Errorf("profilecfg: unknown mode %q (want strong or eventual)", pj.Store.Mode)
	}
	var order store.OrderKind
	switch pj.Store.Order {
	case "", "timestamp":
		order = store.OrderTimestamp
	case "arrival":
		order = store.OrderArrival
	case "hybrid":
		order = store.OrderHybrid
	default:
		return service.Profile{}, fmt.Errorf("profilecfg: unknown order %q", pj.Store.Order)
	}

	sites := make([]simnet.Site, len(pj.Store.Sites))
	for i, s := range pj.Store.Sites {
		sites[i] = simnet.Site(s)
	}
	routing := make(map[simnet.Site]simnet.Site, len(pj.Routing))
	for from, to := range pj.Routing {
		routing[simnet.Site(from)] = simnet.Site(to)
	}

	p := service.Profile{
		Name: pj.Name,
		Store: store.Config{
			Mode:              mode,
			Sites:             sites,
			Primary:           simnet.Site(pj.Store.Primary),
			PropagationFactor: pj.Store.PropagationFactor,
			PropagationBase:   time.Duration(pj.Store.PropagationBase),
			PropagationJitter: time.Duration(pj.Store.PropagationJitter),
			EpochJitter:       time.Duration(pj.Store.EpochJitter),
			FastEpochProb:     pj.Store.FastEpochProb,
			LocalApplyDelay:   time.Duration(pj.Store.LocalApplyDelay),
			LocalApplyJitter:  time.Duration(pj.Store.LocalApplyJitter),
			Order:             order,
			NormalizeAfter:    time.Duration(pj.Store.NormalizeAfter),
			HybridEpochProb:   pj.Store.HybridEpochProb,
			Policy: store.TimestampPolicy{
				Precision:   time.Duration(pj.Store.TimestampPrecision),
				ReverseTies: pj.Store.ReverseTies,
			},
			RetryInterval: time.Duration(pj.Store.RetryInterval),
		},
		Routing:      routing,
		ReadFlapProb: pj.ReadFlapProb,
		APIDelay:     time.Duration(pj.APIDelay),
	}
	if pj.Selection != nil {
		p.Selection = &service.Selection{
			FreshFor:  time.Duration(pj.Selection.FreshFor),
			Shuffle:   pj.Selection.Shuffle,
			DropFresh: pj.Selection.DropFresh,
			TopK:      pj.Selection.TopK,
		}
	}
	return p, nil
}

// Save writes a profile as indented JSON.
func Save(w io.Writer, p service.Profile) error {
	pj := FromProfile(p)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pj)
}

// FromProfile converts a service.Profile into its wire form.
func FromProfile(p service.Profile) ProfileJSON {
	var modeStr string
	switch p.Store.Mode {
	case store.Strong:
		modeStr = "strong"
	default:
		modeStr = "eventual"
	}
	var orderStr string
	switch p.Store.Order {
	case store.OrderArrival:
		orderStr = "arrival"
	case store.OrderHybrid:
		orderStr = "hybrid"
	default:
		orderStr = "timestamp"
	}
	sites := make([]string, len(p.Store.Sites))
	for i, s := range p.Store.Sites {
		sites[i] = string(s)
	}
	routing := make(map[string]string, len(p.Routing))
	for from, to := range p.Routing {
		routing[string(from)] = string(to)
	}
	pj := ProfileJSON{
		Name: p.Name,
		Store: StoreJSON{
			Mode:               modeStr,
			Sites:              sites,
			Primary:            string(p.Store.Primary),
			PropagationFactor:  p.Store.PropagationFactor,
			PropagationBase:    Duration(p.Store.PropagationBase),
			PropagationJitter:  Duration(p.Store.PropagationJitter),
			EpochJitter:        Duration(p.Store.EpochJitter),
			FastEpochProb:      p.Store.FastEpochProb,
			LocalApplyDelay:    Duration(p.Store.LocalApplyDelay),
			LocalApplyJitter:   Duration(p.Store.LocalApplyJitter),
			Order:              orderStr,
			NormalizeAfter:     Duration(p.Store.NormalizeAfter),
			HybridEpochProb:    p.Store.HybridEpochProb,
			TimestampPrecision: Duration(p.Store.Policy.Precision),
			ReverseTies:        p.Store.Policy.ReverseTies,
			RetryInterval:      Duration(p.Store.RetryInterval),
		},
		Routing:      routing,
		ReadFlapProb: p.ReadFlapProb,
		APIDelay:     Duration(p.APIDelay),
	}
	if p.Selection != nil {
		pj.Selection = &SelectionJSON{
			FreshFor:  Duration(p.Selection.FreshFor),
			Shuffle:   p.Selection.Shuffle,
			DropFresh: p.Selection.DropFresh,
			TopK:      p.Selection.TopK,
		}
	}
	return pj
}
