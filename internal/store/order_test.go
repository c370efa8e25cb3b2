package store

import (
	"fmt"
	"testing"
	"time"

	"conprobe/internal/simnet"
)

// stripeEraCounts names the subtests of the tests that once ran at 1, 4
// and 16 lock stripes per replica. The stripes are gone and every name
// now runs the same one-lock store; the names stay only so that the
// test IDs the suite has recorded keep resolving.
var stripeEraCounts = []int{1, 4, 16}

func TestOrderArrivalReplicasStayDivergent(t *testing.T) {
	for _, shards := range stripeEraCounts {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			sites := []simnet.Site{simnet.DCWest, simnet.DCEurope}
			s, c, _ := newSimCluster(t, Config{
				Mode:  Eventual,
				Sites: sites,
				Order: OrderArrival,
			})
			s.Go(func() {
				// Concurrent writes at both DCs: each replica sees its own first.
				if _, err := c.Write(simnet.DCWest, "m1", "a1", ""); err != nil {
					t.Error(err)
				}
				if _, err := c.Write(simnet.DCEurope, "m2", "a3", ""); err != nil {
					t.Error(err)
				}
				s.Sleep(time.Second) // propagation done (65ms one-way)
				west, _ := c.Read(simnet.DCWest)
				eu, _ := c.Read(simnet.DCEurope)
				if !eq(idsOf(west), []string{"m1", "m2"}) {
					t.Errorf("west order = %v", idsOf(west))
				}
				if !eq(idsOf(eu), []string{"m2", "m1"}) {
					t.Errorf("europe order = %v", idsOf(eu))
				}
			})
			s.Wait()
		})
	}
}

func TestOrderHybridHealsAfterNormalize(t *testing.T) {
	for _, shards := range stripeEraCounts {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			sites := []simnet.Site{simnet.DCWest, simnet.DCEurope}
			s, c, _ := newSimCluster(t, Config{
				Mode:           Eventual,
				Sites:          sites,
				Order:          OrderHybrid,
				NormalizeAfter: 2 * time.Second,
			})
			s.Go(func() {
				if _, err := c.Write(simnet.DCWest, "m1", "a1", ""); err != nil {
					t.Error(err)
				}
				s.Sleep(10 * time.Millisecond)
				if _, err := c.Write(simnet.DCEurope, "m2", "a3", ""); err != nil {
					t.Error(err)
				}
				s.Sleep(500 * time.Millisecond)
				// Fresh window: arrival order differs across replicas.
				west, _ := c.Read(simnet.DCWest)
				eu, _ := c.Read(simnet.DCEurope)
				if !eq(idsOf(west), []string{"m1", "m2"}) || !eq(idsOf(eu), []string{"m2", "m1"}) {
					t.Errorf("fresh orders: west=%v eu=%v", idsOf(west), idsOf(eu))
				}
				// After normalization both converge to timestamp order.
				s.Sleep(3 * time.Second)
				west, _ = c.Read(simnet.DCWest)
				eu, _ = c.Read(simnet.DCEurope)
				if !eq(idsOf(west), []string{"m1", "m2"}) || !eq(idsOf(eu), []string{"m1", "m2"}) {
					t.Errorf("normalized orders: west=%v eu=%v", idsOf(west), idsOf(eu))
				}
			})
			s.Wait()
		})
	}
}

func TestLocalApplyDelayHidesOwnWrite(t *testing.T) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCAsia}
	s, c, _ := newSimCluster(t, Config{
		Mode:            Eventual,
		Sites:           sites,
		LocalApplyDelay: 400 * time.Millisecond,
	})
	s.Go(func() {
		if _, err := c.Write(simnet.DCWest, "m1", "a1", ""); err != nil {
			t.Error(err)
		}
		if c.Len(simnet.DCWest) != 0 {
			t.Error("write visible at origin before indexing delay")
		}
		s.Sleep(450 * time.Millisecond)
		if c.Len(simnet.DCWest) != 1 {
			t.Error("write not visible at origin after indexing delay")
		}
	})
	s.Wait()
}

func TestInvalidOrderRejected(t *testing.T) {
	s, _, _ := newSimCluster(t, Config{Mode: Strong, Sites: []simnet.Site{simnet.DCWest}})
	_ = s
	net := simnet.DefaultTopology(1)
	if _, err := NewCluster(s, net, Config{
		Mode: Strong, Sites: []simnet.Site{simnet.DCWest}, Order: OrderKind(42),
	}, 1); err == nil {
		t.Fatal("invalid order accepted")
	}
}

func TestOrderKindString(t *testing.T) {
	if OrderTimestamp.String() != "timestamp" || OrderArrival.String() != "arrival" ||
		OrderHybrid.String() != "hybrid" || OrderKind(9).String() == "" {
		t.Fatal("OrderKind.String wrong")
	}
}
