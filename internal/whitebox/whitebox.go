// Package whitebox implements the white-box testing extension the paper
// leaves as future work ("we would like to extend this methodology ...
// also considering white-box testing, so it can be applied to
// large-scale storage systems").
//
// Instead of inferring divergence from agent reads, a Monitor samples
// the replica logs of a store.Cluster directly, yielding ground-truth
// content- and order-divergence windows between replicas. Comparing the
// ground truth against the black-box estimates quantifies the
// methodology's measurement error: the black-box window is bounded by
// the read sampling period and can only under-approximate divergence
// onset and over-approximate its end.
package whitebox

import (
	"fmt"
	"sync"
	"time"

	"conprobe/internal/core"
	"conprobe/internal/simnet"
	"conprobe/internal/store"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// PairWindows is the ground-truth divergence summary for one replica
// pair over one monitoring run.
type PairWindows struct {
	// A and B are the replica sites.
	A, B simnet.Site
	// Content and Order summarize the respective divergence windows.
	Content, Order WindowSummary
}

// WindowSummary aggregates the intervals during which a divergence
// condition held.
type WindowSummary struct {
	// Largest is the longest contiguous interval.
	Largest time.Duration
	// Total is the sum of all intervals.
	Total time.Duration
	// Count is the number of distinct intervals.
	Count int
	// Open reports whether the condition still held when monitoring
	// stopped.
	Open bool
}

// Monitor periodically samples every replica pair of a cluster.
type Monitor struct {
	clock   vtime.Clock
	cluster *store.Cluster
	period  time.Duration

	mu      sync.Mutex
	running bool
	timer   vtime.Timer
	pairs   []*pairState
}

type pairState struct {
	a, b simnet.Site

	content intervalTracker
	order   intervalTracker
}

// intervalTracker accumulates condition intervals online.
type intervalTracker struct {
	summary WindowSummary
	in      bool
	start   time.Time
}

func (t *intervalTracker) observe(cond bool, at time.Time) {
	switch {
	case cond && !t.in:
		t.in = true
		t.start = at
	case !cond && t.in:
		t.in = false
		t.close(at)
	}
}

func (t *intervalTracker) close(at time.Time) {
	d := at.Sub(t.start)
	if d < 0 {
		d = 0
	}
	t.summary.Total += d
	t.summary.Count++
	if d > t.summary.Largest {
		t.summary.Largest = d
	}
}

func (t *intervalTracker) finish(at time.Time) WindowSummary {
	out := t.summary
	if t.in {
		out.Open = true
		d := at.Sub(t.start)
		if d < 0 {
			d = 0
		}
		out.Total += d
		out.Count++
		if d > out.Largest {
			out.Largest = d
		}
	}
	return out
}

// NewMonitor builds a Monitor sampling the cluster every period.
func NewMonitor(clock vtime.Clock, cluster *store.Cluster, period time.Duration) (*Monitor, error) {
	if period <= 0 {
		return nil, fmt.Errorf("whitebox: non-positive sampling period %v", period)
	}
	sites := cluster.Sites()
	if len(sites) < 2 {
		return nil, fmt.Errorf("whitebox: cluster has %d replica(s); need at least 2", len(sites))
	}
	m := &Monitor{clock: clock, cluster: cluster, period: period}
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			m.pairs = append(m.pairs, &pairState{a: sites[i], b: sites[j]})
		}
	}
	return m, nil
}

// Start begins sampling. It is an error to start a running monitor.
func (m *Monitor) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return fmt.Errorf("whitebox: monitor already running")
	}
	m.running = true
	m.sampleLocked() // immediate baseline sample
	m.timer = m.clock.AfterFunc(m.period, m.tick)
	return nil
}

// tick samples and re-arms the timer Start made while running.
func (m *Monitor) tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running {
		return
	}
	m.sampleLocked()
	m.timer.Reset(m.period)
}

// sampleLocked evaluates the divergence conditions on the current
// replica logs. Caller holds mu.
func (m *Monitor) sampleLocked() {
	now := m.clock.Now()
	logs := make(map[simnet.Site][]trace.WriteID)
	for _, p := range m.pairs {
		for _, site := range []simnet.Site{p.a, p.b} {
			if _, ok := logs[site]; ok {
				continue
			}
			entries, err := m.cluster.Read(site)
			if err != nil {
				continue
			}
			ids := make([]trace.WriteID, len(entries))
			for i, e := range entries {
				ids[i] = trace.WriteID(e.ID)
			}
			logs[site] = ids
		}
	}
	for _, p := range m.pairs {
		la, okA := logs[p.a]
		lb, okB := logs[p.b]
		if !okA || !okB {
			continue
		}
		p.content.observe(core.ContentDiverged(la, lb), now)
		p.order.observe(core.OrderDiverged(la, lb), now)
	}
}

// Stop halts sampling and returns the ground-truth windows per pair.
func (m *Monitor) Stop() []PairWindows {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		m.running = false
		if m.timer != nil {
			m.timer.Stop()
		}
	}
	now := m.clock.Now()
	out := make([]PairWindows, len(m.pairs))
	for i, p := range m.pairs {
		out[i] = PairWindows{
			A:       p.a,
			B:       p.b,
			Content: p.content.finish(now),
			Order:   p.order.finish(now),
		}
	}
	return out
}

// ApplyLags returns, for each replica site, the replication lags of the
// given entries: the delay between an entry's earliest apply anywhere
// and its apply at that site. Entries not applied at a site are counted
// in the returned missing map. This is the white-box ground truth that
// black-box visibility latencies estimate from the outside.
func ApplyLags(c *store.Cluster, ids []string) (lags map[simnet.Site][]time.Duration, missing map[simnet.Site]int) {
	sites := c.Sites()
	lags = make(map[simnet.Site][]time.Duration, len(sites))
	missing = make(map[simnet.Site]int, len(sites))
	for _, id := range ids {
		var (
			earliest time.Time
			have     bool
		)
		applied := make(map[simnet.Site]time.Time, len(sites))
		for _, site := range sites {
			at, ok := c.AppliedAt(site, id)
			if !ok {
				missing[site]++
				continue
			}
			applied[site] = at
			if !have || at.Before(earliest) {
				earliest = at
				have = true
			}
		}
		for site, at := range applied {
			lags[site] = append(lags[site], at.Sub(earliest))
		}
	}
	return lags, missing
}
