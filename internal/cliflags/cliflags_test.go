package cliflags

import (
	"flag"
	"io"
	"strconv"
	"testing"
	"time"

	"conprobe/internal/chaos"
	"conprobe/internal/diskfault"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// TestCanonicalFlagTable pins the shared flags' names, defaults and
// help text. Every cmd/* binary registers these concepts through this
// package, so holding the table here holds it for all of them.
func TestCanonicalFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("canon", flag.ContinueOnError)
	Seed(fs)
	Service(fs, DefaultService)
	Sites(fs)
	Pprof(fs)
	InjectFlags(fs)
	ResilienceFlags(fs)
	FormatFlags(fs)
	ElectionFlags(fs)
	ReadMode(fs)

	want := map[string][2]string{
		"seed":                {"1", "deterministic seed; a fixed seed reproduces the run"},
		"service":             {"fbgroup", "service profile (googleplus, blogger, fbfeed, fbgroup)"},
		"sites":               {"oregon,tokyo,ireland", "comma-separated client sites"},
		"pprof-addr":          {"", "serve net/http/pprof on this address (empty = disabled)"},
		"inject-write-fail":   {"0", "inject write failures at this rate [0,1]"},
		"inject-read-fail":    {"0", "inject read failures at this rate [0,1]"},
		"inject-latency-rate": {"0", "inject latency spikes at this rate [0,1]"},
		"inject-latency":      {"2s", "mean injected latency spike"},
		"inject-timeout-rate": {"0", "inject timeouts (stall then fail) at this rate [0,1]"},
		"inject-timeout":      {"5s", "injected timeout stall duration"},
		"inject-truncate":     {"0", "truncate read responses at this rate [0,1]"},
		"retries":             {"3", "retry attempts per operation, including the first (0 or 1 disables retries)"},
		"retry-base":          {"200ms", "base backoff before the first retry"},
		"breaker-threshold":   {"0", "consecutive failures tripping the circuit breaker (0 disables)"},
		"breaker-open":        {"30s", "how long a tripped breaker rejects operations"},
		"election-timeout":    {"1s", "base heartbeat-silence span before a follower campaigns; each arming adds random jitter in [0, value)"},
		"heartbeat-interval":  {"100ms", "leader heartbeat period; keep well under -election-timeout"},
		"quorum":              {"0", "write-ack quorum size including the leader (0 = majority of the cluster)"},
		"clock-skew":          {"0s", "assumed bound on inter-node clock drift; the leader lease lasts election-timeout minus twice this (0 = a tenth of -election-timeout)"},
		"read-mode":           {"local", "cluster read consistency: local (any replica, no leadership check), lease (leader under a clock-skew-bounded lease), quorum (read-index heartbeat round)"},
		"csv":                 {"false", "emit figure data series as CSV instead of the text report"},
		"json":                {"false", "emit the analysis as machine-readable JSON"},
		"md":                  {"false", "emit the analysis as Markdown"},
	}
	got := 0
	fs.VisitAll(func(f *flag.Flag) {
		got++
		w, ok := want[f.Name]
		if !ok {
			t.Errorf("unexpected shared flag -%s", f.Name)
			return
		}
		if f.DefValue != w[0] {
			t.Errorf("-%s default = %q, want %q", f.Name, f.DefValue, w[0])
		}
		if f.Usage != w[1] {
			t.Errorf("-%s help = %q, want %q", f.Name, f.Usage, w[1])
		}
	})
	if got != len(want) {
		t.Errorf("registered %d shared flags, want %d", got, len(want))
	}
}

func TestResiliencePolicies(t *testing.T) {
	fs := flag.NewFlagSet("r", flag.ContinueOnError)
	r := ResilienceFlags(fs)
	if err := fs.Parse([]string{"-retries", "1", "-breaker-threshold", "0"}); err != nil {
		t.Fatal(err)
	}
	retry, breaker := r.Policies()
	if retry != nil || breaker != nil {
		t.Fatalf("retries=1/breaker=0 should disable both, got %v %v", retry, breaker)
	}
	fs2 := flag.NewFlagSet("r2", flag.ContinueOnError)
	r2 := ResilienceFlags(fs2)
	if err := fs2.Parse([]string{"-retries", "4", "-breaker-threshold", "2"}); err != nil {
		t.Fatal(err)
	}
	retry, breaker = r2.Policies()
	if retry == nil || retry.MaxAttempts != 4 {
		t.Fatalf("retry policy = %+v, want MaxAttempts 4", retry)
	}
	if breaker == nil || breaker.FailureThreshold != 2 {
		t.Fatalf("breaker = %+v, want FailureThreshold 2", breaker)
	}
}

func TestInjectConfigDisabledWhenZero(t *testing.T) {
	fs := flag.NewFlagSet("i", flag.ContinueOnError)
	inj := InjectFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := inj.Config(); ok {
		t.Fatal("zero rates should report disabled")
	}
	fs2 := flag.NewFlagSet("i2", flag.ContinueOnError)
	inj2 := InjectFlags(fs2)
	if err := fs2.Parse([]string{"-inject-write-fail", "0.5"}); err != nil {
		t.Fatal(err)
	}
	cfg, ok := inj2.Config()
	if !ok || cfg.WriteFailRate != 0.5 {
		t.Fatalf("cfg = %+v ok=%v, want enabled with WriteFailRate 0.5", cfg, ok)
	}
}

// TestDiskFaultsParseAndArm pins -disk-fault over every site x kind,
// with and without :afterN: each spec arms exactly one fault — the
// site's path, After, Sticky for ENOSPC and Seed = -seed — the same
// drill as a chaos diskfault event at offset t arms that fault seeded by
// t, and every malformed spec fails at flag parse with its message.
func TestDiskFaultsParseAndArm(t *testing.T) {
	sites := []string{"wal", "term", "snapshot", "store", "checkpoint"}
	for _, site := range sites {
		for _, kind := range diskfault.Kinds() {
			for _, after := range []int{-1, 0, 3} {
				spec := site + ":" + string(kind)
				if after >= 0 {
					spec += ":" + strconv.Itoa(after)
				}
				fs := flag.NewFlagSet("d", flag.ContinueOnError)
				fs.SetOutput(io.Discard)
				d := DiskFaults(fs)
				if err := fs.Parse([]string{"-disk-fault", spec}); err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				inj, err := d.Injector(nil, 7)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				want := diskfault.Fault{
					Kind:   kind,
					Path:   diskfault.Sites[site],
					After:  max(after, 0),
					Sticky: kind == diskfault.KindENOSPC,
					Seed:   7,
				}
				// Arm is a no-op for a fault identical to an unspent armed
				// one, so the count stays 1 only if the spec armed want.
				if err := inj.Arm(want); err != nil {
					t.Fatal(err)
				}
				if n := inj.Armed(); n != 1 {
					t.Errorf("%s: armed a fault other than %v", spec, want)
				}

				// The same drill as a chaos event at offset t arms the same
				// fault, seeded by t.
				e, err := chaos.ParseDiskFault(spec)
				if err != nil {
					t.Fatal(err)
				}
				e.At = time.Minute
				sched := &chaos.Schedule{Events: []chaos.Event{e}}
				if err := sched.Validate(); err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
				ev := diskfault.New(nil)
				w := chaos.World{Net: simnet.DefaultTopology(1), Disks: map[string]*diskfault.Injector{site: ev}}
				if err := sched.Drive(vtime.NewSim(epoch.Add(e.At)), epoch, w, nil); err != nil {
					t.Fatal(err)
				}
				want.Seed = uint64(e.At)
				if err := ev.Arm(want); err != nil {
					t.Fatal(err)
				}
				if n := ev.Armed(); n != 1 {
					t.Errorf("%s as a chaos event: armed a fault other than %v", spec, want)
				}
			}
		}
	}

	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d := DiskFaults(fs)
	if err := fs.Parse([]string{"-disk-fault", "term:fsync-gate", "-disk-fault", "wal:torn:3,snapshot:bit-flip"}); err != nil {
		t.Fatal(err)
	}
	if len(*d) != 3 {
		t.Fatalf("parsed %d specs, want 3: %v", len(*d), *d)
	}
	inj, err := d.Injector(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if inj == nil || inj.Armed() != 3 {
		t.Fatalf("injector armed %v faults, want 3", inj)
	}

	var none DiskFaultSpecs
	if inj, err := none.Injector(nil, 7); err != nil || inj != nil {
		t.Fatalf("empty specs should yield a nil injector, got %v %v", inj, err)
	}

	for spec, msg := range map[string]string{
		"wal":          `diskfault: spec "wal": want site:kind[:afterN]`,
		"wal:torn:1:2": `diskfault: spec "wal:torn:1:2": want site:kind[:afterN]`,
		"nosite:torn":  `diskfault: spec "nosite:torn": unknown site "nosite" (known: wal, term, snapshot, store, checkpoint)`,
		"wal:melt":     `diskfault: spec "wal:melt": unknown fault kind "melt"`,
		"wal:torn:-1":  `diskfault: spec "wal:torn:-1": after must be a non-negative integer`,
		"wal:torn:x":   `diskfault: spec "wal:torn:x": after must be a non-negative integer`,
	} {
		bad := flag.NewFlagSet("bad", flag.ContinueOnError)
		bad.SetOutput(io.Discard)
		DiskFaults(bad)
		err := bad.Parse([]string{"-disk-fault", spec})
		if want := `invalid value "` + spec + `" for flag -disk-fault: ` + msg; err == nil || err.Error() != want {
			t.Errorf("-disk-fault %s: error %v, want %s", spec, err, want)
		}
	}
}
