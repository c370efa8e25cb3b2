package clocksync

import (
	"errors"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestEstimateRecoversSkewWithoutJitter(t *testing.T) {
	s := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1, simnet.WithJitter(0))
	skews := []time.Duration{
		-250 * time.Millisecond,
		0,
		42 * time.Millisecond,
		3 * time.Second,
	}
	for _, skew := range skews {
		skew := skew
		s.Go(func() {
			ac := NewSkewedClock(s, skew)
			probe := NewSimProbe(s, net, simnet.Virginia, simnet.Tokyo, ac)
			probe.Round(1)
			res, err := Estimate(s, probe.Probe, 5)
			if err != nil {
				t.Error(err)
				return
			}
			// With symmetric legs and no jitter the estimate is exact:
			// delta = -skew.
			if res.Delta != -skew {
				t.Errorf("skew %v: delta = %v, want %v", skew, res.Delta, -skew)
			}
			// Virginia-Tokyo RTT is 218ms: uncertainty 109ms.
			if res.Uncertainty != 109*time.Millisecond {
				t.Errorf("uncertainty = %v, want 109ms", res.Uncertainty)
			}
			if res.Samples != 5 {
				t.Errorf("samples = %d, want 5", res.Samples)
			}
		})
	}
	s.Wait()
}

func TestEstimateWithinUncertaintyUnderJitter(t *testing.T) {
	s := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(7, simnet.WithJitter(0.2))
	const skew = 500 * time.Millisecond
	s.Go(func() {
		ac := NewSkewedClock(s, skew)
		probe := NewSimProbe(s, net, simnet.Virginia, simnet.Oregon, ac)
		probe.Round(1)
		res, err := Estimate(s, probe.Probe, 8)
		if err != nil {
			t.Error(err)
			return
		}
		errAbs := res.Delta + skew // estimate error (true delta is -skew)
		if errAbs < 0 {
			errAbs = -errAbs
		}
		if errAbs > res.Uncertainty {
			t.Errorf("estimate error %v exceeds uncertainty %v", errAbs, res.Uncertainty)
		}
	})
	s.Wait()
}

func TestEstimatePartitionedAgentFails(t *testing.T) {
	s := vtime.NewSim(epoch)
	net := simnet.DefaultTopology(1, simnet.WithJitter(0))
	net.Partition(simnet.Virginia, simnet.Ireland)
	s.Go(func() {
		ac := NewSkewedClock(s, 0)
		probe := NewSimProbe(s, net, simnet.Virginia, simnet.Ireland, ac)
		probe.Round(1)
		if _, err := Estimate(s, probe.Probe, 3); err == nil {
			t.Error("estimate across partition succeeded")
		}
	})
	s.Wait()
}

func TestEstimateToleratesPartialFailures(t *testing.T) {
	s := vtime.NewSim(epoch)
	calls := 0
	probe := func() (time.Time, error) {
		calls++
		if calls%2 == 0 {
			return time.Time{}, errors.New("transient")
		}
		s.Sleep(10 * time.Millisecond)
		return s.Now(), nil
	}
	s.Go(func() {
		res, err := Estimate(s, probe, 6)
		if err != nil {
			t.Error(err)
			return
		}
		if res.Samples != 3 {
			t.Errorf("samples = %d, want 3", res.Samples)
		}
	})
	s.Wait()
}

func TestEstimateInvalidSampleCount(t *testing.T) {
	s := vtime.NewSim(epoch)
	if _, err := Estimate(s, func() (time.Time, error) { return s.Now(), nil }, 0); err == nil {
		t.Fatal("accepted zero samples")
	}
}

func TestSkewedClockBehavior(t *testing.T) {
	s := vtime.NewSim(epoch)
	s.Go(func() {
		c := NewSkewedClock(s, time.Minute)
		if got := c.Now(); !got.Equal(epoch.Add(time.Minute)) {
			t.Errorf("Now = %v", got)
		}
		if c.Skew() != time.Minute {
			t.Error("Skew accessor wrong")
		}
		t0 := c.Now()
		c.Sleep(time.Second) // sleeps on base clock
		if d := c.Since(t0); d != time.Second {
			t.Errorf("Since = %v, want 1s", d)
		}
		c.SetSkew(-time.Minute)
		if got := c.Now(); !got.Equal(epoch.Add(time.Second).Add(-time.Minute)) {
			t.Errorf("Now after SetSkew = %v", got)
		}
		fired := false
		c.AfterFunc(time.Second, func() { fired = true })
		c.Sleep(2 * time.Second)
		if !fired {
			t.Error("AfterFunc did not fire on base clock")
		}
	})
	s.Wait()
}
