package store

import (
	"sync"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// deliveries is every replication delivery the cluster still owes, as
// one min-heap behind a single clock timer armed at the earliest due
// time. A fire applies each due delivery at exactly its due instant —
// the heap decides how many timer events exist, never when a delivery
// lands (testdata/delivery_*.golden, recorded from one timer per
// destination stripe, pins that).
type deliveries struct {
	mu    sync.Mutex
	queue deliveryQueue
	seq   uint64 // schedule order, the tie-break among equal due times

	timer    vtime.Timer
	armedAt  time.Time
	armedGen uint64
}

// pendingDelivery is one queued replication delivery.
type pendingDelivery struct {
	at  time.Time
	seq uint64
	src simnet.Site
	dst *replica
	e   Entry
}

// deliveryQueue is a min-heap of pending deliveries by (at, seq), sifted
// on the values themselves: container/heap would box each 200-byte
// delivery into an interface on the way in and again on the way out. No two
// share a seq, so the order is strict and pop order ignores the heap's layout.
type deliveryQueue []pendingDelivery

func (q deliveryQueue) less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q *deliveryQueue) push(d pendingDelivery) {
	h := append(*q, d)
	*q = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest delivery; the queue is non-empty.
func (q *deliveryQueue) pop() pendingDelivery {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		child := 2*i + 1
		if child+1 < n && h.less(child+1, child) {
			child++ // the earlier of the two
		}
		if child >= n || !h.less(child, i) {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	*q = h[:n]
	return h[n]
}

// enqueue queues delivery of e from src to dst at `at`, pulling the
// timer forward when this is the new earliest deadline.
func (c *Cluster) enqueue(dst *replica, src simnet.Site, e Entry, at time.Time) {
	p := &c.pending
	p.mu.Lock()
	p.seq++
	p.queue.push(pendingDelivery{at: at, seq: p.seq, src: src, dst: dst, e: e})
	if p.timer == nil || at.Before(p.armedAt) {
		c.armLocked(at)
	}
	p.mu.Unlock()
}

// armLocked points the single delivery timer at `at`. Caller holds
// pending.mu. The generation token invalidates a previously armed timer
// whose Stop raced its fire.
func (c *Cluster) armLocked(at time.Time) {
	p := &c.pending
	if p.timer != nil {
		p.timer.Stop()
	}
	p.armedAt = at
	p.armedGen++
	gen := p.armedGen
	p.timer = c.clock.AfterFunc(at.Sub(c.clock.Now()), func() { c.deliverDue(gen) })
}

// deliverDue applies every delivery that has come due, in (due time,
// schedule order), then re-arms at the next deadline. Deliveries blocked
// by a partition are re-queued one RetryInterval out; deliveries from
// before a Reset are dropped. pending.mu is held throughout (lock order
// pending.mu before replica.mu, never the reverse), so a concurrent
// enqueue waits and then arms against the settled queue.
func (c *Cluster) deliverDue(gen uint64) {
	p := &c.pending
	p.mu.Lock()
	defer p.mu.Unlock()
	if gen != p.armedGen {
		return
	}
	p.timer = nil
	now := c.clock.Now()
	for len(p.queue) > 0 && !p.queue[0].at.After(now) {
		d := p.queue.pop()
		if d.e.epoch != c.epoch.Load() {
			continue // stale delivery from before a Reset
		}
		if !c.net.Reachable(d.src, d.dst.site) {
			d.at = now.Add(c.cfg.RetryInterval)
			p.queue.push(d)
			continue
		}
		c.apply(d.dst, d.e, now)
	}
	if len(p.queue) > 0 {
		c.armLocked(p.queue[0].at)
	}
}
