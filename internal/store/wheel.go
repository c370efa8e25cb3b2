package store

import (
	"container/heap"
	"sync"
	"time"

	"conprobe/internal/vtime"
)

// timerWheel coalesces every shard's pending-delivery deadline into one
// cluster-wide schedule backed by a single clock timer. One drainer
// timer per shard would cost one timer event — and, under vtime, one
// transient goroutine — per (site, shard) head movement; the wheel
// arms exactly one timer at the globally earliest due time and drains
// every due shard from that one event, in deterministic (due time,
// registration order).
//
// Registrations are lazy: a shard that re-registers at an earlier time
// simply pushes a second heap entry and the superseded one is discarded
// when popped (its time no longer matches the shard's live registration
// in shard.wheelAt). Firing therefore applies each delivery at exactly
// its due instant — the wheel changes how many timer events exist, never
// when a delivery lands (testdata/delivery_*.golden, recorded from the
// one-timer-per-shard scheme it replaced, pins that).
type timerWheel struct {
	mu    sync.Mutex
	queue wheelQueue
	seq   uint64

	timer    vtime.Timer
	armedAt  time.Time
	armedGen uint64
	// firing suppresses re-arming by concurrent registrations while a
	// fire is draining shards; the fire re-arms once at the end.
	firing bool
}

// wheelEntry is one registered (due time, shard) pair.
type wheelEntry struct {
	at  time.Time
	seq uint64
	r   *replica
	sh  *shard
}

// wheelQueue is a min-heap of registrations by (at, seq).
type wheelQueue []wheelEntry

func (q wheelQueue) Len() int { return len(q) }
func (q wheelQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q wheelQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *wheelQueue) Push(x interface{}) { *q = append(*q, x.(wheelEntry)) }
func (q *wheelQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// wheelSchedule registers sh for a drain at `at` (the head of its
// pending heap). A live registration at or before `at` already covers
// it; a later one is superseded. Callers may hold sh.mu — the lock
// order is always sh.mu before wheel.mu, never the reverse.
func (c *Cluster) wheelSchedule(r *replica, sh *shard, at time.Time) {
	w := &c.wheel
	w.mu.Lock()
	if !sh.wheelAt.IsZero() && !sh.wheelAt.After(at) {
		w.mu.Unlock()
		return
	}
	sh.wheelAt = at
	w.seq++
	heap.Push(&w.queue, wheelEntry{at: at, seq: w.seq, r: r, sh: sh})
	if !w.firing && (w.timer == nil || at.Before(w.armedAt)) {
		c.armWheelLocked(at)
	}
	w.mu.Unlock()
}

// wheelUnregister drops sh's live registration (on Reset). Its heap
// entries become stale and are discarded when popped.
func (c *Cluster) wheelUnregister(sh *shard) {
	w := &c.wheel
	w.mu.Lock()
	sh.wheelAt = time.Time{}
	w.mu.Unlock()
}

// armWheelLocked points the single wheel timer at `at`. Caller holds
// w.mu. The generation token invalidates a previously armed timer whose
// Stop raced its fire.
func (c *Cluster) armWheelLocked(at time.Time) {
	w := &c.wheel
	if w.timer != nil {
		w.timer.Stop()
	}
	w.armedAt = at
	w.armedGen++
	gen := w.armedGen
	w.timer = c.clock.AfterFunc(at.Sub(c.clock.Now()), func() { c.wheelFire(gen) })
}

// wheelFire drains every shard whose registration has come due, then
// re-arms at the next live registration. Due shards drain in (due time,
// registration order) — deterministic, and each delivery still applies
// at exactly its due instant.
func (c *Cluster) wheelFire(gen uint64) {
	w := &c.wheel
	w.mu.Lock()
	if gen != w.armedGen {
		w.mu.Unlock()
		return
	}
	w.timer = nil
	w.firing = true
	now := c.clock.Now()
	var due []wheelEntry
	for w.queue.Len() > 0 && !w.queue[0].at.After(now) {
		ent := heap.Pop(&w.queue).(wheelEntry)
		if ent.sh.wheelAt.Equal(ent.at) {
			ent.sh.wheelAt = time.Time{}
			due = append(due, ent)
		}
	}
	w.mu.Unlock()
	for _, ent := range due {
		c.drainShard(ent.r, ent.sh)
	}
	w.mu.Lock()
	w.firing = false
	for w.queue.Len() > 0 && !w.queue[0].sh.wheelAt.Equal(w.queue[0].at) {
		heap.Pop(&w.queue) // discard superseded registrations
	}
	if w.queue.Len() > 0 {
		c.armWheelLocked(w.queue[0].at)
	}
	w.mu.Unlock()
}

// drainShard applies every pending delivery of one shard that has come
// due, in (due time, schedule order) under a single lock acquisition,
// then re-registers the shard for its next deadline. Deliveries blocked
// by a partition are re-queued one RetryInterval out; deliveries from
// before a Reset are dropped.
func (c *Cluster) drainShard(r *replica, sh *shard) {
	now := c.clock.Now()
	sh.mu.Lock()
	for len(sh.pending) > 0 && !sh.pending[0].at.After(now) {
		d := heap.Pop(&sh.pending).(pendingDelivery)
		// Load the epoch per iteration, under sh.mu: a Reset racing this
		// drain may have enqueued (via concurrent writes) new-epoch
		// deliveries that must not be dropped against a pre-lock snapshot.
		if d.e.epoch != c.epoch.Load() {
			continue // stale delivery from before a Reset
		}
		if !c.net.Reachable(d.src, r.site) {
			d.at = now.Add(c.cfg.RetryInterval)
			heap.Push(&sh.pending, d)
			continue
		}
		c.applyLocked(sh, d.e, now)
	}
	if len(sh.pending) > 0 {
		c.wheelSchedule(r, sh, sh.pending[0].at)
	}
	sh.mu.Unlock()
}
