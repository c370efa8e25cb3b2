package store

import (
	"container/heap"
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

// deliveryQueue is a min-heap of pending deliveries by (at, seq).
type deliveryQueue []pendingDelivery

func (q deliveryQueue) Len() int { return len(q) }
func (q deliveryQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q deliveryQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *deliveryQueue) Push(x interface{}) { *q = append(*q, x.(pendingDelivery)) }
func (q *deliveryQueue) Pop() interface{} {
	old := *q
	n := len(old)
	d := old[n-1]
	*q = old[:n-1]
	return d
}

// enqueue queues delivery of e from src to dst at `at`, pulling the
// timer forward when this is the new earliest deadline.
func (c *Cluster) enqueue(dst *replica, src simnet.Site, e Entry, at time.Time) {
	p := &c.pending
	p.mu.Lock()
	p.seq++
	heap.Push(&p.queue, pendingDelivery{at: at, seq: p.seq, src: src, dst: dst, e: e})
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
		d := heap.Pop(&p.queue).(pendingDelivery)
		if d.e.epoch != c.epoch.Load() {
			continue // stale delivery from before a Reset
		}
		if !c.net.Reachable(d.src, d.dst.site) {
			d.at = now.Add(c.cfg.RetryInterval)
			heap.Push(&p.queue, d)
			continue
		}
		c.apply(d.dst, d.e, now)
	}
	if len(p.queue) > 0 {
		c.armLocked(p.queue[0].at)
	}
}
