package cliflags

import (
	"flag"
	"io"
	"testing"
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

func TestDiskFaultsParseAndArm(t *testing.T) {
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

	bad := flag.NewFlagSet("bad", flag.ContinueOnError)
	bad.SetOutput(io.Discard)
	DiskFaults(bad)
	if err := bad.Parse([]string{"-disk-fault", "nosite:torn"}); err == nil {
		t.Fatal("unknown site accepted at parse time")
	}
	bad2 := flag.NewFlagSet("bad2", flag.ContinueOnError)
	bad2.SetOutput(io.Discard)
	DiskFaults(bad2)
	if err := bad2.Parse([]string{"-disk-fault", "wal:melt"}); err == nil {
		t.Fatal("unknown fault kind accepted at parse time")
	}
}
