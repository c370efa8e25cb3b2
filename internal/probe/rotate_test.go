package probe

import (
	"context"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

func TestRotateSites(t *testing.T) {
	sim := vtime.NewSim(epoch)
	agents := DefaultAgents(sim, time.Second, 1)

	r1 := RotateSites(agents, 1)
	want := []simnet.Site{simnet.Tokyo, simnet.Ireland, simnet.Oregon}
	for i, a := range r1 {
		if a.Site != want[i] {
			t.Fatalf("rotate 1: agent %d at %s, want %s", a.ID, a.Site, want[i])
		}
		if a.ID != trace.AgentID(i+1) {
			t.Fatalf("rotate must keep IDs: agent %d", a.ID)
		}
	}
	// Identity rotations.
	for _, k := range []int{0, 3, -3, 6} {
		rk := RotateSites(agents, k)
		for i := range rk {
			if rk[i].Site != agents[i].Site {
				t.Fatalf("rotate %d: expected identity", k)
			}
		}
	}
	// Negative rotation is the inverse of positive.
	rneg := RotateSites(agents, -1)
	if rneg[0].Site != simnet.Ireland {
		t.Fatalf("rotate -1: agent1 at %s", rneg[0].Site)
	}
	if RotateSites(nil, 1) != nil {
		t.Fatal("empty rotation")
	}
	// Clocks are carried over, not rebuilt.
	if r1[0].Clock != agents[0].Clock {
		t.Fatal("rotation must preserve agent clocks")
	}
}

// TestRotationMovesLastWriterArtifact reproduces the paper's control
// experiment: in Test 1 the last writer has a smaller window to observe
// monotonic-writes anomalies, a role the default deployment assigns to
// Ireland. Rotating the locations must move that role with the agent ID,
// not the site.
func TestRotationMovesLastWriterArtifact(t *testing.T) {
	countMW := func(rotate int) map[trace.AgentID]int {
		res, err := SimulateConcurrent(context.Background(), Options{
			Workload: Workload{
				Service:    service.NameFBGroup,
				Test1Count: 6,
				Seed:       31,
				Rotate:     rotate,
			},
			Engine: Engine{Lanes: 1},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[trace.AgentID]int)
		for _, tr := range res.Traces {
			for _, w := range tr.Writes {
				out[w.Agent]++
			}
		}
		return out
	}
	base := countMW(0)
	rotated := countMW(1)
	// Under either rotation, every agent still writes twice per test:
	// the protocol is attached to IDs, not to sites.
	for ag := trace.AgentID(1); ag <= 3; ag++ {
		if base[ag] == 0 || rotated[ag] == 0 {
			t.Fatalf("agent %d wrote base=%d rotated=%d", ag, base[ag], rotated[ag])
		}
	}
}
