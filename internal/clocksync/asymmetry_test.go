package clocksync

import (
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// TestAsymmetricLinkBiasesEstimate quantifies the known weakness of the
// paper's Cristian-style protocol: when the two legs of the coordinator-
// agent path are not equal, the delta estimate is biased by half the
// asymmetry — while the reported RTT/2 uncertainty still (just) covers
// it.
func TestAsymmetricLinkBiasesEstimate(t *testing.T) {
	s := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.DefaultTopology(1, simnet.WithJitter(0))
	// 218ms RTT split 160/58 instead of 109/109.
	net.SetOneWay(simnet.Virginia, simnet.Tokyo, 160*time.Millisecond)
	net.SetOneWay(simnet.Tokyo, simnet.Virginia, 58*time.Millisecond)
	const skew = 0 // true delta is zero; any estimate is pure bias

	s.Go(func() {
		ac := NewSkewedClock(s, skew)
		probe := NewSimProbe(s, net, simnet.Virginia, simnet.Tokyo, ac)
		probe.Round(1)
		res, err := Estimate(s, probe.Probe, 5)
		if err != nil {
			t.Error(err)
			return
		}
		// The agent reads its clock 160ms into a 218ms round trip; the
		// estimator assumes 109ms. Bias = 109 - 160 = -51ms.
		wantBias := -51 * time.Millisecond
		if res.Delta != wantBias {
			t.Errorf("delta = %v, want bias %v", res.Delta, wantBias)
		}
		// The paper's stated uncertainty (half RTT) still bounds it.
		if abs(res.Delta) > res.Uncertainty {
			t.Errorf("bias %v exceeds reported uncertainty %v", res.Delta, res.Uncertainty)
		}
	})
	s.Wait()
}

func abs(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
