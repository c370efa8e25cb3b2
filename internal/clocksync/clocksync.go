// Package clocksync implements the coordinator's clock-delta estimation
// protocol (Section IV, "Time synchronization").
//
// The paper disables NTP and instead runs a simple protocol resembling
// Cristian's algorithm: the coordinator issues a series of queries to
// each agent requesting its current local time, measures the RTT of each
// query, assumes the two legs take equal time, and averages the per-query
// delta estimates. The uncertainty of the estimate is half the RTT.
//
// Estimation is expressed over a ProbeFunc so the same code serves the
// simulator (a probe that sleeps sampled one-way delays around a skewed
// clock read) and live deployments (a probe that performs an HTTP time
// request).
package clocksync

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// ProbeFunc reads a remote agent's current local time, taking real (or
// simulated) network time to do so.
type ProbeFunc func() (time.Time, error)

// Result is one agent's estimated clock relationship to the coordinator.
type Result struct {
	// Delta estimates (coordinator clock − agent clock): adding Delta to
	// an agent-local timestamp yields coordinator time.
	Delta time.Duration
	// Uncertainty is the mean half-RTT of the probes — the error bound
	// the paper assigns to the estimate.
	Uncertainty time.Duration
	// Samples is the number of successful probes used.
	Samples int
}

// Estimate runs n probes and aggregates them into a Result. At least one
// probe must succeed; individual probe failures are tolerated.
func Estimate(clock vtime.Clock, probe ProbeFunc, n int) (Result, error) {
	if n <= 0 {
		return Result{}, errors.New("clocksync: sample count must be positive")
	}
	var (
		deltaSum time.Duration
		rttSum   time.Duration
		ok       int
		lastErr  error
	)
	for i := 0; i < n; i++ {
		t1 := clock.Now()
		remote, err := probe()
		t2 := clock.Now()
		if err != nil {
			lastErr = err
			continue
		}
		rtt := t2.Sub(t1)
		if rtt < 0 {
			lastErr = fmt.Errorf("clocksync: negative RTT %v", rtt)
			continue
		}
		// Assume symmetric legs: the agent read its clock at t1 + rtt/2
		// of coordinator time, so delta = (t1 + rtt/2) − remote.
		deltaSum += t1.Add(rtt / 2).Sub(remote)
		rttSum += rtt
		ok++
	}
	if ok == 0 {
		if lastErr == nil {
			lastErr = errors.New("clocksync: all probes failed")
		}
		return Result{}, lastErr
	}
	return Result{
		Delta:       deltaSum / time.Duration(ok),
		Uncertainty: rttSum / time.Duration(2*ok),
		Samples:     ok,
	}, nil
}

// SkewedClock is an agent's local clock: the shared simulation clock
// offset by a fixed skew. It implements vtime.Clock so agents timestamp
// their operations with it.
type SkewedClock struct {
	base vtime.Clock
	mu   sync.Mutex
	skew time.Duration
}

var _ vtime.Clock = (*SkewedClock)(nil)

// NewSkewedClock returns base offset by skew.
func NewSkewedClock(base vtime.Clock, skew time.Duration) *SkewedClock {
	return &SkewedClock{base: base, skew: skew}
}

// Now returns the skewed local time.
func (c *SkewedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base.Now().Add(c.skew)
}

// Sleep sleeps on the base clock (skew does not affect durations).
func (c *SkewedClock) Sleep(d time.Duration) { c.base.Sleep(d) }

// AfterFunc schedules on the base clock.
func (c *SkewedClock) AfterFunc(d time.Duration, f func()) vtime.Timer {
	return c.base.AfterFunc(d, f)
}

// Since returns elapsed skewed-local time since t.
func (c *SkewedClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Skew returns the configured skew.
func (c *SkewedClock) Skew() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skew
}

// SetSkew changes the skew (models clock adjustment between tests).
func (c *SkewedClock) SetSkew(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.skew = d
}

// SimProbe models the coordinator's time queries to one agent over the
// simulated network: sleep a sampled one-way delay, read the agent's
// skewed clock, sleep the return leg. Delays are keyed by (salt, probe
// count), so a probe sequence is deterministic regardless of what else
// runs concurrently in the simulation. One value serves an agent for a
// whole campaign: Round restarts it under the next round's salt.
type SimProbe struct {
	clock        vtime.Clock
	net          *simnet.Network
	coord, agent simnet.Site
	agentClock   *SkewedClock
	base         detrand.Key
	n            uint64
}

// NewSimProbe returns the coordinator at coord's probe of the agent at
// agent, whose local clock is agentClock. Call Round before Probe.
func NewSimProbe(clock vtime.Clock, net *simnet.Network, coord, agent simnet.Site, agentClock *SkewedClock) *SimProbe {
	return &SimProbe{clock: clock, net: net, coord: coord, agent: agent, agentClock: agentClock}
}

// Round starts a synchronization round: the probes that follow draw their
// delays from salt and the agent clock's skew as it is now.
func (p *SimProbe) Round(salt int64) {
	p.n = 0
	p.base = detrand.NewKey(int64(p.agentClock.Skew())^salt, "clocksync").Str(string(p.coord)).Str(string(p.agent))
}

// Probe is the round's next query, a ProbeFunc.
func (p *SimProbe) Probe() (time.Time, error) {
	if !p.net.Reachable(p.coord, p.agent) {
		return time.Time{}, fmt.Errorf("clocksync: %s unreachable from %s", p.agent, p.coord)
	}
	p.n++
	k := p.base.Uint(p.n)
	d1, err := p.net.OneWayU(p.coord, p.agent, k.Str("go").Float64())
	if err != nil {
		return time.Time{}, err
	}
	p.clock.Sleep(d1)
	remote := p.agentClock.Now()
	d2, err := p.net.OneWayU(p.agent, p.coord, k.Str("back").Float64())
	if err != nil {
		return time.Time{}, err
	}
	p.clock.Sleep(d2)
	return remote, nil
}
