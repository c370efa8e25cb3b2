// Package cliflags registers the command-line flags the cmd/* binaries
// share, so every binary spells a shared concept with the same flag
// name, default and help text. A binary registers only the groups it
// needs; because each group is defined once here, the conventions
// cannot drift between binaries.
//
// Canonical conventions:
//
//   - -seed             deterministic seed, default 1
//   - -service          profile name (consvc/conload default fbgroup;
//     conprobe accepts the extra value "all")
//   - -sites            comma-separated client sites
//   - -pprof-addr       net/http/pprof listen address, empty = off
//   - -inject-*         deterministic fault-injection rates/durations
//   - -retries et al.   resilience middleware (0 or 1 retries = off,
//     breaker off by default)
//   - -csv/-json/-md    report output format selectors
package cliflags

import (
	"flag"
	"strings"
	"time"

	"conprobe/internal/chaos"
	"conprobe/internal/diskfault"
	"conprobe/internal/faultinject"
	"conprobe/internal/obs"
	"conprobe/internal/resilience"
)

// Canonical defaults for the shared flags.
const (
	DefaultSeed              = int64(1)
	DefaultService           = "fbgroup"
	DefaultSites             = "oregon,tokyo,ireland"
	DefaultRetries           = 3
	DefaultRetryBase         = 200 * time.Millisecond
	DefaultBreakerThreshold  = 0
	DefaultBreakerOpen       = 30 * time.Second
	DefaultElectionTimeout   = time.Second
	DefaultHeartbeatInterval = 100 * time.Millisecond
)

// Seed registers the canonical -seed flag.
func Seed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", DefaultSeed, "deterministic seed; a fixed seed reproduces the run")
}

// Service registers the canonical -service flag with the given default
// (binaries that serve or drive a single profile pass DefaultService).
func Service(fs *flag.FlagSet, def string) *string {
	return fs.String("service", def, "service profile (googleplus, blogger, fbfeed, fbgroup)")
}

// ServiceMulti registers conprobe's -service variant, which also
// accepts "all" to run every profile.
func ServiceMulti(fs *flag.FlagSet) *string {
	return fs.String("service", "all", "service profile (googleplus, blogger, fbfeed, fbgroup, or all)")
}

// Sites registers the canonical -sites flag.
func Sites(fs *flag.FlagSet) *string {
	return fs.String("sites", DefaultSites, "comma-separated client sites")
}

// Pprof registers the canonical -pprof-addr flag.
func Pprof(fs *flag.FlagSet) *string {
	return fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
}

// Election bundles the cluster election and write-quorum flags shared
// by replicated deployments.
type Election struct {
	ElectionTimeout   *time.Duration
	HeartbeatInterval *time.Duration
	Quorum            *int
	ClockSkew         *time.Duration
}

// ElectionFlags registers the -election-timeout / -heartbeat-interval /
// -quorum / -clock-skew group.
func ElectionFlags(fs *flag.FlagSet) Election {
	return Election{
		ElectionTimeout:   fs.Duration("election-timeout", DefaultElectionTimeout, "base heartbeat-silence span before a follower campaigns; each arming adds random jitter in [0, value)"),
		HeartbeatInterval: fs.Duration("heartbeat-interval", DefaultHeartbeatInterval, "leader heartbeat period; keep well under -election-timeout"),
		Quorum:            fs.Int("quorum", 0, "write-ack quorum size including the leader (0 = majority of the cluster)"),
		ClockSkew:         fs.Duration("clock-skew", 0, "assumed bound on inter-node clock drift; the leader lease lasts election-timeout minus twice this (0 = a tenth of -election-timeout)"),
	}
}

// ReadMode registers the canonical -read-mode flag selecting the
// consistency level a client's reads ask GET /posts for (conload).
func ReadMode(fs *flag.FlagSet) *string {
	return fs.String("read-mode", "local",
		"cluster read consistency: local (any replica, no leadership check), lease (leader under a clock-skew-bounded lease), quorum (read-index heartbeat round)")
}

// Inject bundles the deterministic fault-injection flags.
type Inject struct {
	WriteFail    *float64
	ReadFail     *float64
	LatencyRate  *float64
	Latency      *time.Duration
	TimeoutRate  *float64
	Timeout      *time.Duration
	TruncateRate *float64
}

// InjectFlags registers the -inject-* group.
func InjectFlags(fs *flag.FlagSet) Inject {
	return Inject{
		WriteFail:    fs.Float64("inject-write-fail", 0, "inject write failures at this rate [0,1]"),
		ReadFail:     fs.Float64("inject-read-fail", 0, "inject read failures at this rate [0,1]"),
		LatencyRate:  fs.Float64("inject-latency-rate", 0, "inject latency spikes at this rate [0,1]"),
		Latency:      fs.Duration("inject-latency", 2*time.Second, "mean injected latency spike"),
		TimeoutRate:  fs.Float64("inject-timeout-rate", 0, "inject timeouts (stall then fail) at this rate [0,1]"),
		Timeout:      fs.Duration("inject-timeout", 5*time.Second, "injected timeout stall duration"),
		TruncateRate: fs.Float64("inject-truncate", 0, "truncate read responses at this rate [0,1]"),
	}
}

// DiskFaultSpecs collects -disk-fault drill specs, each a chaos
// diskfault event in flag form (chaos.ParseDiskFault). The flag is
// repeatable and each value may also carry several comma-separated
// specs; every spec is parsed at flag-parse time so a typo fails the
// flag, not the first write an hour later.
type DiskFaultSpecs []string

func (d *DiskFaultSpecs) String() string { return strings.Join(*d, ",") }

// Set implements flag.Value.
func (d *DiskFaultSpecs) Set(v string) error {
	for _, spec := range strings.Split(v, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if _, err := chaos.ParseDiskFault(spec); err != nil {
			return err
		}
		*d = append(*d, spec)
	}
	return nil
}

// DiskFaults registers the canonical -disk-fault flag arming
// deterministic storage-fault drills.
func DiskFaults(fs *flag.FlagSet) *DiskFaultSpecs {
	var d DiskFaultSpecs
	fs.Var(&d, "disk-fault",
		"arm a deterministic storage fault, site:kind[:afterN] — sites wal, term, snapshot (the temp file a log compaction writes), store, checkpoint; kinds torn, fsync-gate, bit-flip, enospc, dirsync-omit, crash-rename (repeatable)")
	return &d
}

// Injector builds a diskfault.Injector with every spec armed as its
// chaos event arms it, seeding the deterministic damage from seed.
// Returns nil when no specs were given, so callers can pass the
// result's FS straight through (a nil injector means the OS filesystem).
func (d DiskFaultSpecs) Injector(sc *obs.Scope, seed int64) (*diskfault.Injector, error) {
	if len(d) == 0 {
		return nil, nil
	}
	inj := diskfault.New(sc)
	for _, spec := range d {
		e, err := chaos.ParseDiskFault(spec)
		if err != nil {
			return nil, err
		}
		if err := inj.Arm(e.DiskFault(nil, uint64(seed))); err != nil {
			return nil, err
		}
	}
	return inj, nil
}

// Config renders the flags as a faultinject.Config. ok is false when
// every rate is zero (injection disabled).
func (f Inject) Config() (cfg faultinject.Config, ok bool) {
	cfg = faultinject.Config{
		WriteFailRate:    *f.WriteFail,
		ReadFailRate:     *f.ReadFail,
		LatencyRate:      *f.LatencyRate,
		Latency:          *f.Latency,
		TimeoutRate:      *f.TimeoutRate,
		Timeout:          *f.Timeout,
		TruncateReadRate: *f.TruncateRate,
	}
	return cfg, cfg.Enabled()
}

// Resilience bundles the retry/breaker middleware flags.
type Resilience struct {
	Retries          *int
	RetryBase        *time.Duration
	BreakerThreshold *int
	BreakerOpen      *time.Duration
}

// ResilienceFlags registers the -retries/-retry-base/-breaker-* group.
func ResilienceFlags(fs *flag.FlagSet) Resilience {
	return Resilience{
		Retries:          fs.Int("retries", DefaultRetries, "retry attempts per operation, including the first (0 or 1 disables retries)"),
		RetryBase:        fs.Duration("retry-base", DefaultRetryBase, "base backoff before the first retry"),
		BreakerThreshold: fs.Int("breaker-threshold", DefaultBreakerThreshold, "consecutive failures tripping the circuit breaker (0 disables)"),
		BreakerOpen:      fs.Duration("breaker-open", DefaultBreakerOpen, "how long a tripped breaker rejects operations"),
	}
}

// Policies renders the flags as the optional retry policy and breaker
// config (nil when disabled).
func (r Resilience) Policies() (*resilience.RetryPolicy, *resilience.BreakerConfig) {
	var retry *resilience.RetryPolicy
	if *r.Retries > 1 {
		retry = &resilience.RetryPolicy{MaxAttempts: *r.Retries, BaseDelay: *r.RetryBase}
	}
	var breaker *resilience.BreakerConfig
	if *r.BreakerThreshold > 0 {
		breaker = &resilience.BreakerConfig{FailureThreshold: *r.BreakerThreshold, OpenFor: *r.BreakerOpen}
	}
	return retry, breaker
}

// Formats bundles the report output-format selectors.
type Formats struct {
	CSV  *bool
	JSON *bool
	MD   *bool
}

// FormatFlags registers the -csv/-json/-md group.
func FormatFlags(fs *flag.FlagSet) Formats {
	return Formats{
		CSV:  fs.Bool("csv", false, "emit figure data series as CSV instead of the text report"),
		JSON: fs.Bool("json", false, "emit the analysis as machine-readable JSON"),
		MD:   fs.Bool("md", false, "emit the analysis as Markdown"),
	}
}
