package profilecfg

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/store"
)

func TestRoundTripAllBuiltins(t *testing.T) {
	for _, name := range service.ProfileNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			orig, err := service.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, orig); err != nil {
				t.Fatal(err)
			}
			back, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.Name != orig.Name {
				t.Fatalf("name %q != %q", back.Name, orig.Name)
			}
			normalize := func(k store.OrderKind) store.OrderKind {
				if k == 0 {
					return store.OrderTimestamp // NewCluster's default
				}
				return k
			}
			if back.Store.Mode != orig.Store.Mode ||
				normalize(back.Store.Order) != normalize(orig.Store.Order) {
				t.Fatalf("mode/order lost: %+v vs %+v", back.Store, orig.Store)
			}
			if back.Store.PropagationBase != orig.Store.PropagationBase ||
				back.Store.EpochJitter != orig.Store.EpochJitter ||
				back.Store.Policy != orig.Store.Policy {
				t.Fatalf("store params lost:\n%+v\n%+v", back.Store, orig.Store)
			}
			if len(back.Routing) != len(orig.Routing) {
				t.Fatal("routing lost")
			}
			for from, to := range orig.Routing {
				if back.Routing[from] != to {
					t.Fatalf("routing %s -> %s lost", from, to)
				}
			}
			if (back.Selection == nil) != (orig.Selection == nil) {
				t.Fatal("selection presence lost")
			}
			if orig.Selection != nil && *back.Selection != *orig.Selection {
				t.Fatalf("selection lost: %+v vs %+v", back.Selection, orig.Selection)
			}
			if back.APIDelay != orig.APIDelay || back.ReadFlapProb != orig.ReadFlapProb {
				t.Fatal("service knobs lost")
			}
		})
	}
}

func TestLoadMinimalProfile(t *testing.T) {
	in := `{
	  "name": "custom",
	  "store": {
	    "mode": "eventual",
	    "sites": ["dc-west", "dc-europe"],
	    "propagation_base": "750ms",
	    "order": "hybrid",
	    "normalize_after": "2s"
	  },
	  "routing": {"oregon": "dc-west", "tokyo": "dc-west", "ireland": "dc-europe"},
	  "read_flap_prob": 0.01,
	  "api_delay": "350ms"
	}`
	p, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "custom" || p.Store.Mode != store.Eventual || p.Store.Order != store.OrderHybrid {
		t.Fatalf("profile = %+v", p)
	}
	if p.Store.PropagationBase != 750*time.Millisecond || p.APIDelay != 350*time.Millisecond {
		t.Fatalf("durations = %v %v", p.Store.PropagationBase, p.APIDelay)
	}
	if p.Routing[simnet.Tokyo] != simnet.DCWest {
		t.Fatalf("routing = %+v", p.Routing)
	}
}

func TestLoadRejections(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"bad json", `{`},
		{"unknown field", `{"name":"x","store":{"mode":"strong","sites":["dc-west"]},"routing":{},"surprise":1}`},
		{"bad mode", `{"name":"x","store":{"mode":"quantum","sites":["dc-west"]},"routing":{}}`},
		{"bad order", `{"name":"x","store":{"mode":"strong","sites":["dc-west"],"order":"chaos"},"routing":{}}`},
		{"bad duration", `{"name":"x","store":{"mode":"strong","sites":["dc-west"],"propagation_base":"fast"},"routing":{}}`},
		{"duration wrong type", `{"name":"x","store":{"mode":"strong","sites":["dc-west"],"propagation_base":true},"routing":{}}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.in)); err == nil {
				t.Fatalf("accepted %s", tt.name)
			}
		})
	}
}

func TestDurationNumericNanoseconds(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte("1500000000")); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != 1500*time.Millisecond {
		t.Fatalf("d = %v", time.Duration(d))
	}
}

// TestLoadedProfileRunsCampaign loads a JSON profile and runs a small
// campaign with it through Workload.Profile.
func TestLoadedProfileRunsCampaign(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, service.Blogger()); err != nil {
		t.Fatal(err)
	}
	p, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameBlogger,
			Test1Count: 1,
			Seed:       1,
			Profile:    &p,
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
}

func TestLoadAllWithTopology(t *testing.T) {
	in := `{
	  "name": "austral",
	  "store": {"mode": "eventual", "sites": ["dc-syd", "dc-gru"], "propagation_base": "500ms"},
	  "routing": {"oregon": "dc-syd", "tokyo": "dc-syd", "ireland": "dc-gru"},
	  "topology": [
	    {"a": "oregon", "b": "dc-syd", "rtt": "140ms"},
	    {"a": "tokyo", "b": "dc-syd", "rtt": "105ms"},
	    {"a": "ireland", "b": "dc-gru", "rtt": "190ms"},
	    {"a": "dc-syd", "b": "dc-gru", "rtt": "310ms"}
	  ]
	}`
	l, err := LoadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	p, links := l.Profile, l.Links
	if p.Name != "austral" || len(links) != 4 {
		t.Fatalf("profile %s links %d", p.Name, len(links))
	}
	if links[3].RTT != 310*time.Millisecond || links[3].A != "dc-syd" {
		t.Fatalf("link = %+v", links[3])
	}

	// End to end: the custom profile runs once the links are applied.
	res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
		Workload: probe.Workload{
			Service:    service.NameBlogger, // campaign parameters only
			Test2Count: 1,
			Seed:       3,
			Profile:    &p,
			ConfigureNetwork: func(n *simnet.Network) {
				for _, l := range links {
					n.SetRTT(l.A, l.B, l.RTT)
				}
			},
		},
		Engine: probe.Engine{Lanes: 1},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traces[0]
	if len(tr.Writes) != 3 || len(tr.Reads) == 0 {
		t.Fatalf("custom-topology campaign incomplete: %d writes %d reads", len(tr.Writes), len(tr.Reads))
	}
}

func TestLoadAllFaultInjection(t *testing.T) {
	in := `{
	  "name": "x",
	  "store": {"mode": "strong", "sites": ["dc-a"]},
	  "routing": {"oregon": "dc-a"},
	  "fault_injection": {
	    "write_fail_rate": 0.1,
	    "read_fail_rate": 0.2,
	    "latency_rate": 0.05,
	    "latency": "2s",
	    "outages": [{"start": "1m", "end": "2m"}]
	  }
	}`
	l, err := LoadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	faults := l.Faults
	if faults == nil {
		t.Fatal("fault_injection block not loaded")
	}
	if faults.WriteFailRate != 0.1 || faults.ReadFailRate != 0.2 {
		t.Fatalf("rates = %+v", faults)
	}
	if faults.Latency != 2*time.Second {
		t.Fatalf("latency = %v", faults.Latency)
	}
	if len(faults.Outages) != 1 || faults.Outages[0].Start != time.Minute || faults.Outages[0].End != 2*time.Minute {
		t.Fatalf("outages = %+v", faults.Outages)
	}
	if !faults.Enabled() {
		t.Fatal("loaded faults not Enabled")
	}
}

func TestLoadAllRejectsBadFaultRate(t *testing.T) {
	in := `{
	  "name": "x",
	  "store": {"mode": "strong", "sites": ["dc-a"]},
	  "routing": {"oregon": "dc-a"},
	  "fault_injection": {"read_fail_rate": 1.5}
	}`
	if _, err := LoadAll(strings.NewReader(in)); err == nil {
		t.Fatal("out-of-range fault rate accepted")
	}
}

func TestLoadAllRejectsBadLink(t *testing.T) {
	in := `{
	  "name": "x",
	  "store": {"mode": "strong", "sites": ["dc-a"]},
	  "routing": {"oregon": "dc-a"},
	  "topology": [{"a": "oregon", "b": "", "rtt": "1ms"}]
	}`
	if _, err := LoadAll(strings.NewReader(in)); err == nil {
		t.Fatal("bad link accepted")
	}
}
