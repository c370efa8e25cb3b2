package conprobe_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"conprobe"
	"conprobe/internal/chaos"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// The overload campaign's window: the second test of every lane starts
// inside it, the first ends before it opens and the third starts after
// it closes.
const (
	overloadAt    = 4 * time.Minute
	overloadUntil = 10 * time.Minute
	overloadLabel = "overload(dc-east)"
)

// overloadOptions is a short fbgroup campaign whose chaos schedule
// overloads dc-east, where fbgroup routes oregon and ireland but not
// tokyo.
func overloadOptions() conprobe.Options {
	opts := resumeBaseOptions()
	opts.Workload.Service = conprobe.ServiceFBGroup
	opts.Chaos = &conprobe.ChaosSchedule{Events: []chaos.Event{{
		Kind: chaos.KindOverload, Site: simnet.DCEast,
		At: overloadAt, Until: overloadUntil, Rate: 0.5,
	}}}
	return opts
}

// TestOverloadShedsRoutedSitesInsideWindow pins what an overload event
// does end to end: operations fail only in tests that run inside the
// window, only for agents at client sites routed to the overloaded data
// center, and the report and every test's failed-op counts match the
// committed golden.
func TestOverloadShedsRoutedSitesInsideWindow(t *testing.T) {
	res, err := conprobe.Run(context.Background(), overloadOptions())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := service.ProfileByName(service.NameFBGroup)
	if err != nil {
		t.Fatal(err)
	}
	sites := simnet.AgentSites()

	var b strings.Builder
	if err := conprobe.WriteReport(&b, res.Report); err != nil {
		t.Fatal(err)
	}
	shed, inside := 0, 0
	for _, tr := range res.Traces {
		in := slices.Contains(tr.ChaosActive, overloadLabel)
		if in {
			inside++
		}
		for agent, n := range tr.FailedOps {
			if n == 0 {
				continue
			}
			shed += n
			if !in {
				t.Errorf("test %d: agent %d failed %d ops outside the overload window", tr.TestID, agent, n)
			}
			if site := sites[agent-1]; prof.Routing[site] != simnet.DCEast {
				t.Errorf("test %d: agent %d at %s (routed to %s) failed %d ops", tr.TestID, agent, site, prof.Routing[site], n)
			}
		}
		fmt.Fprintf(&b, "test %d failed_ops %v\n", tr.TestID, tr.FailedOps)
	}
	if inside == 0 || inside == len(res.Traces) {
		t.Fatalf("%d of %d tests inside the window; want some inside and some outside", inside, len(res.Traces))
	}
	if shed == 0 {
		t.Fatal("the overload window shed no operation")
	}

	path := filepath.Join("testdata", "overload_campaign.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("overload campaign output differs from %s:\n%s", path, b.String())
	}
}

// TestOverloadOfUnroutedSiteIsRefused: fbgroup routes no client site to
// dc-west, so an overload of it has nobody to shed; the campaign refuses
// the schedule, naming the site, instead of shedding every client.
func TestOverloadOfUnroutedSiteIsRefused(t *testing.T) {
	opts := overloadOptions()
	opts.Chaos.Events[0].Site = simnet.DCWest
	res, err := conprobe.Run(context.Background(), opts)
	if err == nil {
		shed := 0
		for _, tr := range res.Traces {
			for _, n := range tr.FailedOps {
				shed += n
			}
		}
		t.Fatalf("the campaign ran, and shed %d operations", shed)
	}
	if !strings.Contains(err.Error(), "overload(dc-west)") {
		t.Fatalf("error %q does not name the overloaded site", err)
	}
}
