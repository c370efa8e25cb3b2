package store

import (
	"sync"
	"time"

	"conprobe/internal/minheap"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// deliveries is every replication delivery the cluster still owes, as
// one min-heap behind a single clock timer, made by the first arm and
// re-armed at the earliest due time ever after. A fire applies each due
// delivery at exactly its due instant — the heap decides how many timer
// events exist, never when a delivery lands (testdata/delivery_*.golden,
// recorded from one timer per destination stripe, pins that).
type deliveries struct {
	mu    sync.Mutex
	queue []pendingDelivery // min-heap by (at, seq)
	seq   uint64            // schedule order, the tie-break among equal due times

	timer   vtime.Timer
	armed   bool // a fire is owed at armedAt
	armedAt time.Time
}

// pendingDelivery is one queued replication delivery.
type pendingDelivery struct {
	at  time.Time
	seq uint64
	src simnet.Site
	dst *replica
	e   Entry
}

func (d *pendingDelivery) before(o *pendingDelivery) bool {
	if !d.at.Equal(o.at) {
		return d.at.Before(o.at)
	}
	return d.seq < o.seq
}

// enqueue queues delivery of e from src to dst at `at`, pulling the
// timer forward when this is the new earliest deadline.
func (c *Cluster) enqueue(dst *replica, src simnet.Site, e Entry, at time.Time) {
	p := &c.pending
	p.mu.Lock()
	p.seq++
	p.queue = minheap.Push(p.queue, pendingDelivery{at: at, seq: p.seq, src: src, dst: dst, e: e}, (*pendingDelivery).before)
	if !p.armed || at.Before(p.armedAt) {
		c.armLocked(at)
	}
	p.mu.Unlock()
}

// armLocked points the delivery timer at `at`. Caller holds pending.mu.
func (c *Cluster) armLocked(at time.Time) {
	p := &c.pending
	p.armed, p.armedAt = true, at
	d := at.Sub(c.clock.Now())
	if p.timer == nil {
		p.timer = c.clock.AfterFunc(d, c.deliverDue)
	} else {
		p.timer.Reset(d)
	}
}

// deliverDue applies every delivery that has come due, in (due time,
// schedule order), then re-arms at the next deadline. Deliveries blocked
// by a partition are re-queued one RetryInterval out; deliveries from
// before a Reset are dropped. pending.mu is held throughout (lock order
// pending.mu before replica.mu, never the reverse), so a concurrent
// enqueue waits and then arms against the settled queue. Idempotent: a
// real-clock fire that raced the Reset which moved it finds nothing due
// and re-arms where the timer already points.
func (c *Cluster) deliverDue() {
	p := &c.pending
	p.mu.Lock()
	defer p.mu.Unlock()
	now := c.clock.Now()
	for len(p.queue) > 0 && !p.queue[0].at.After(now) {
		var d pendingDelivery
		p.queue, d = minheap.Pop(p.queue, (*pendingDelivery).before)
		if d.e.epoch != c.epoch.Load() {
			continue // stale delivery from before a Reset
		}
		if !c.net.Reachable(d.src, d.dst.site) {
			d.at = now.Add(c.cfg.RetryInterval)
			p.queue = minheap.Push(p.queue, d, (*pendingDelivery).before)
			continue
		}
		c.apply(d.dst, d.e, now)
	}
	p.armed = false
	if len(p.queue) > 0 {
		c.armLocked(p.queue[0].at)
	}
}
