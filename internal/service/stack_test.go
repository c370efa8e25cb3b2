package service_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"conprobe/internal/faultinject"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/session"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// freshSlices hands every read's posts on in a slice of their own, as
// Simulated.Read allocated them before it handed on the store's shared
// rendering (store.Cluster.Read).
type freshSlices struct{ service.Service }

func (f freshSlices) Read(from simnet.Site, reader string) ([]service.Post, error) {
	posts, err := f.Service.Read(from, reader)
	if err != nil {
		return nil, err
	}
	own := make([]service.Post, len(posts))
	copy(own, posts)
	return own, nil
}

// stackReads runs three agents through the campaign's wrapper stack —
// fault injection (failed and truncated reads) under per-agent retries
// under per-agent session masking, which appends to, filters and reorders
// what it is handed — over one fbfeed service, and returns every read of
// every agent, held until all of them are done.
func stackReads(t *testing.T, base func(*service.Simulated) service.Service) [3][][]service.Post {
	t.Helper()
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(4)
	svc, err := service.NewSimulated(sim, net, service.FBFeed(), 5)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(base(svc), sim, faultinject.Config{Seed: 6, ReadFailRate: 0.2, TruncateReadRate: 0.3})
	var reads [3][][]service.Post
	g := sim.NewGroup()
	sim.Go(func() {
		for i, site := range []simnet.Site{simnet.Oregon, simnet.Tokyo, simnet.Ireland} {
			label := fmt.Sprintf("agent%d", i+1)
			client := session.Wrap(resilience.Wrap(inj, sim, resilience.RetryPolicy{Seed: 7}), label, session.All)
			g.Go(func() {
				var mine [][]service.Post
				for n := 0; n < 24; n++ {
					if n%8 == 0 {
						id := fmt.Sprintf("%s-m%d", label, n/8)
						if err := client.Write(site, service.Post{ID: id, Author: label}); err != nil {
							t.Errorf("%s write: %v", label, err)
						}
					}
					if posts, err := client.Read(site, label); err == nil {
						mine = append(mine, posts)
					}
					sim.Sleep(300 * time.Millisecond)
				}
				reads[i] = mine
			})
		}
		g.Join()
	})
	sim.Wait()
	return reads
}

func TestWrapperStackReadsAsWithFreshSlices(t *testing.T) {
	shared := stackReads(t, func(s *service.Simulated) service.Service { return s })
	fresh := stackReads(t, func(s *service.Simulated) service.Service { return freshSlices{s} })
	truncatedOrMasked := false
	for ag, want := range fresh {
		got := shared[ag]
		if len(got) != len(want) || len(want) < 12 {
			t.Fatalf("agent %d: %d reads over the store's renderings, %d over fresh slices", ag+1, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("agent %d read %d:\n shared %v\n  fresh %v", ag+1, i, got[i], want[i])
			}
			if i > 0 && len(want[i]) != len(want[i-1]) {
				truncatedOrMasked = true
			}
		}
	}
	if !truncatedOrMasked {
		t.Fatal("no read differed in length from the one before: the stack did nothing")
	}
}
