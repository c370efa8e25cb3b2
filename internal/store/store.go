// Package store implements the geo-replicated log substrate underlying
// the simulated online services.
//
// A Cluster is a set of per-data-center replicas of an append-only log of
// posts. Two replication modes are provided:
//
//   - Strong: writes are applied synchronously at every replica before
//     the write returns, yielding the anomaly-free behavior the paper
//     observed on Blogger.
//   - Eventual: a write is applied at the replica of the contacted data
//     center and propagated asynchronously to the others after a
//     network-derived delay, yielding the divergence behaviors observed
//     on Google+ and the Facebook services.
//
// Each replica orders its log by creation timestamp under a configurable
// TimestampPolicy. Truncating timestamps to one-second precision with
// reversed tie-breaking reproduces the deterministic same-second
// reordering the paper discovered in Facebook Group (Section V,
// "monotonic writes").
//
// # Concurrency
//
// Replica state is lock-striped into Config.Shards shards per replica,
// keyed by entry ID, so writes and deliveries for different keys proceed
// in parallel. Replication is batched per (destination site, shard):
// each shard keeps a min-heap of pending deliveries ordered by
// (due time, schedule order), drained by the cluster-wide timer wheel
// (wheel.go), so propagation drains in O(batches) timer events instead
// of one event per entry. Reads merge the shards into an arrival-order
// timeline sorted by (apply time, ArrivalSeq) — the same order the
// pre-shard store produced by appending under one lock — and cache the
// rendered timeline until any shard's generation counter moves.
package store

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// DefaultShards is the per-replica lock stripe count used when
// Config.Shards is unset.
const DefaultShards = 8

// Entry is one stored post.
type Entry struct {
	// ID is the caller-assigned unique identifier of the post.
	ID string
	// Author is the writing agent's label.
	Author string
	// Body is the post content.
	Body string
	// DependsOn optionally names a causally preceding entry (opaque to
	// the store; carried for clients).
	DependsOn string
	// Origin is the data center that accepted the write.
	Origin simnet.Site
	// CreatedAt is the server-side creation stamp, already truncated to
	// the cluster's timestamp precision.
	CreatedAt time.Time
	// ArrivalSeq is the cluster-wide acceptance order, used to break
	// CreatedAt ties.
	ArrivalSeq uint64

	// epoch is the Reset generation the entry belongs to; deliveries from
	// earlier generations are dropped.
	epoch uint64
}

// Mode selects the replication protocol.
type Mode int

// Replication modes.
const (
	// Strong applies writes synchronously at every replica.
	Strong Mode = iota + 1
	// Eventual applies writes at the contacted replica and propagates
	// asynchronously.
	Eventual
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Strong:
		return "strong"
	case Eventual:
		return "eventual"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// TimestampPolicy controls creation-stamp assignment and log ordering.
type TimestampPolicy struct {
	// Precision truncates creation stamps (0 keeps full resolution).
	// Facebook Group tags events at one-second precision.
	Precision time.Duration
	// ReverseTies orders entries with equal (truncated) stamps by
	// descending arrival order — the deterministic tie-break the paper
	// inferred for Facebook Group.
	ReverseTies bool
}

// OrderKind selects how a replica orders its log when read.
type OrderKind int

// Read-time orderings.
const (
	// OrderTimestamp sorts the whole log by creation stamp (the default).
	OrderTimestamp OrderKind = iota + 1
	// OrderArrival presents entries in local arrival order; replicas that
	// received concurrent writes in different orders stay divergent.
	OrderArrival
	// OrderHybrid presents entries older than NormalizeAfter in timestamp
	// order and newer entries in local arrival order, modeling feed
	// pipelines that append first and re-rank in the background. Order
	// divergence is transient and heals after roughly NormalizeAfter.
	OrderHybrid
)

// String names the ordering.
func (k OrderKind) String() string {
	switch k {
	case OrderTimestamp:
		return "timestamp"
	case OrderArrival:
		return "arrival"
	case OrderHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("order(%d)", int(k))
	}
}

// less orders entries under the policy.
func (p TimestampPolicy) less(a, b Entry) bool {
	if !a.CreatedAt.Equal(b.CreatedAt) {
		return a.CreatedAt.Before(b.CreatedAt)
	}
	if p.ReverseTies {
		return a.ArrivalSeq > b.ArrivalSeq
	}
	return a.ArrivalSeq < b.ArrivalSeq
}

// Config parameterizes a Cluster.
type Config struct {
	// Mode is the replication protocol. Required.
	Mode Mode
	// Sites are the data centers hosting replicas. Required, non-empty.
	Sites []simnet.Site
	// Primary is the write leader; defaults to Sites[0]. Only strong
	// mode routes every write through the primary.
	Primary simnet.Site
	// Policy is the timestamp policy.
	Policy TimestampPolicy
	// Order is the read-time ordering (default OrderTimestamp).
	Order OrderKind
	// NormalizeAfter is the age beyond which OrderHybrid entries are
	// presented in timestamp order (default 3s).
	NormalizeAfter time.Duration
	// HybridEpochProb is, under OrderHybrid, the probability that an
	// epoch actually surfaces fresh entries in arrival order; in the
	// remaining epochs the ranking pipeline keeps up and reads are in
	// timestamp order throughout (default 1). Lowering it makes order
	// divergence rare but long-lived, as the paper observed on Google+.
	HybridEpochProb float64
	// LocalApplyDelay postpones visibility of a write at every replica
	// (eventual mode only) on top of propagation, modeling asynchronous
	// feed indexing: the write is acknowledged immediately but appears
	// in reads only after the indexing delay, even at its own origin.
	// This is the mechanism behind the pervasive read-your-writes
	// violations on Facebook Feed.
	LocalApplyDelay time.Duration
	// LocalApplyJitter adds uniform extra local visibility delay in
	// [0, J).
	LocalApplyJitter time.Duration
	// PropagationFactor scales the inter-DC one-way delay when
	// scheduling eventual propagation (default 1).
	PropagationFactor float64
	// PropagationBase is a fixed extra delay applied to eventual
	// propagation (models batching/queuing inside the provider).
	PropagationBase time.Duration
	// PropagationJitter adds uniform extra delay in [0, J) independently
	// per entry per link; it is the source of rare same-origin reordering
	// during replication.
	PropagationJitter time.Duration
	// EpochJitter adds a per-epoch replication lag sampled uniformly in
	// [0, E) at creation and at every Reset, shared by all propagations
	// of the epoch. It models slowly varying backlog in the provider's
	// replication pipeline and spreads divergence windows across tests
	// without reordering writes within a test.
	EpochJitter time.Duration
	// FastEpochProb is the probability that an epoch runs with no
	// replication backlog at all: epoch lag, base delay and per-entry
	// jitter are skipped, leaving only the network one-way delay. It
	// models the fraction of tests in which the provider's pipeline was
	// keeping up and no divergence was observable.
	FastEpochProb float64
	// RetryInterval is how long a propagation blocked by a partition
	// waits before retrying (default 1s).
	RetryInterval time.Duration
	// Shards is the per-replica lock stripe count (default
	// DefaultShards). Campaign output is independent of the shard count;
	// it only tunes contention under parallel load.
	Shards int
	// Durable, when non-nil, makes the cluster crash-safe: accepted
	// writes are fsynced to a per-shard WAL before WriteEntry returns,
	// resets are journaled, and NewCluster replays snapshot+WAL from
	// Durable.Dir. See Durable for the recovery semantics.
	Durable *Durable
}

// Cluster is a replicated log spanning several data centers.
type Cluster struct {
	clock vtime.Clock
	net   *simnet.Network
	cfg   Config

	seed int64

	seq      atomic.Uint64 // cluster-wide acceptance order (ArrivalSeq)
	schedSeq atomic.Uint64 // delivery schedule order, tie-break in pending heaps
	epoch    atomic.Uint64
	epochLag atomic.Int64 // ns; negative sentinel marks a fast epoch
	hybridOn atomic.Bool  // whether the epoch surfaces arrival order under OrderHybrid

	// resetMu serializes Reset (epoch bump + per-epoch resampling); the
	// hot paths never take it.
	resetMu sync.Mutex

	replicas map[simnet.Site]*replica

	// wheel is the cluster-wide delivery timer wheel (see wheel.go).
	wheel timerWheel

	// durable is non-nil when Config.Durable requested persistence.
	durable *durableState
}

// replica is the per-DC log, striped into shards by entry ID.
type replica struct {
	site   simnet.Site
	shards []*shard
	cache  timelineCache
}

// shard holds one lock stripe of a replica: its slice of the applied
// log, the apply-time index, and the pending-delivery queue the timer
// wheel drains in batches.
type shard struct {
	mu sync.Mutex
	// gen counts applied mutations (applies and resets); the timeline
	// cache snapshots it to detect staleness without locking.
	gen       atomic.Uint64
	recs      []appliedEntry
	appliedAt map[string]time.Time
	pending   deliveryQueue
	// wheelAt is the due time of the shard's live registration in the
	// cluster timer wheel (zero when unregistered). Guarded by the
	// wheel's mutex, not sh.mu.
	wheelAt time.Time
}

// appliedEntry pairs an entry with the time its replica applied it; the
// merged arrival timeline sorts by (at, ArrivalSeq).
type appliedEntry struct {
	e  Entry
	at time.Time
}

// pendingDelivery is one queued replication delivery.
type pendingDelivery struct {
	at  time.Time
	seq uint64
	src simnet.Site
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

// timelineCache memoizes the rendered read timelines of one replica,
// keyed by a snapshot of the shard generation counters. Refreshes are
// incremental: offsets records how much of each shard's log the cached
// timelines already cover, so a refresh only merges the new tail
// entries instead of re-sorting the whole replica. Published slices
// (merged, sorted) are immutable — a refresh builds replacements — so
// readers may extract copies outside the cache lock.
type timelineCache struct {
	mu      sync.Mutex
	gens    []uint64
	offsets []int
	merged  []appliedEntry // (applyTime, ArrivalSeq) order
	sorted  []Entry        // merged re-sorted under the timestamp policy; built lazily
	// hybrid memoizes the rendered OrderHybrid timeline for one
	// normalize cutoff (hybridCutoff); consecutive reads at the same
	// virtual instant — the common case under the discrete-event clock —
	// hit it without re-partitioning. Invalidated whenever merged
	// changes.
	hybridCutoff time.Time
	hybrid       []Entry
}

// NewCluster builds a Cluster over the given network.
func NewCluster(clock vtime.Clock, net *simnet.Network, cfg Config, seed int64) (*Cluster, error) {
	if cfg.Mode != Strong && cfg.Mode != Eventual {
		return nil, fmt.Errorf("store: invalid mode %v", cfg.Mode)
	}
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("store: no replica sites")
	}
	if cfg.Primary == "" {
		cfg.Primary = cfg.Sites[0]
	}
	found := false
	for _, s := range cfg.Sites {
		if s == cfg.Primary {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("store: primary %s not among sites %v", cfg.Primary, cfg.Sites)
	}
	if cfg.PropagationFactor <= 0 {
		cfg.PropagationFactor = 1
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = time.Second
	}
	if cfg.Order == 0 {
		cfg.Order = OrderTimestamp
	}
	if cfg.Order != OrderTimestamp && cfg.Order != OrderArrival && cfg.Order != OrderHybrid {
		return nil, fmt.Errorf("store: invalid order %v", cfg.Order)
	}
	if cfg.NormalizeAfter <= 0 {
		cfg.NormalizeAfter = 3 * time.Second
	}
	if cfg.HybridEpochProb == 0 {
		cfg.HybridEpochProb = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	c := &Cluster{
		clock:    clock,
		net:      net,
		cfg:      cfg,
		seed:     seed,
		replicas: make(map[simnet.Site]*replica, len(cfg.Sites)),
	}
	for _, s := range cfg.Sites {
		c.replicas[s] = newReplica(s, cfg.Shards)
	}
	c.epochLag.Store(int64(c.sampleEpochLag(0)))
	c.hybridOn.Store(c.sampleEpochHybrid(0))
	if cfg.Durable != nil {
		if err := c.openDurable(*cfg.Durable); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// sampleEpochHybrid decides whether the given epoch surfaces arrival
// order under OrderHybrid.
func (c *Cluster) sampleEpochHybrid(epoch uint64) bool {
	return detrand.NewKey(c.seed, "epoch").Uint(epoch).Str("hybrid").Float64() < c.cfg.HybridEpochProb
}

func newReplica(site simnet.Site, shards int) *replica {
	r := &replica{site: site, shards: make([]*shard, shards)}
	for i := range r.shards {
		r.shards[i] = &shard{appliedAt: make(map[string]time.Time)}
	}
	return r
}

// shard maps an entry ID onto the replica's stripe for it.
func (r *replica) shard(id string) *shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return r.shards[h.Sum32()%uint32(len(r.shards))]
}

// sampleEpochLag draws the epoch's shared replication lag; a negative
// sentinel marks a fast (backlog-free) epoch. Draws are keyed by the
// epoch number, so they are deterministic for a given seed.
func (c *Cluster) sampleEpochLag(epoch uint64) time.Duration {
	k := detrand.NewKey(c.seed, "epoch").Uint(epoch)
	if c.cfg.FastEpochProb > 0 && k.Str("fast").Float64() < c.cfg.FastEpochProb {
		return -1
	}
	if c.cfg.EpochJitter <= 0 {
		return 0
	}
	return time.Duration(k.Str("lag").Intn(int64(c.cfg.EpochJitter)))
}

// Sites returns the replica sites.
func (c *Cluster) Sites() []simnet.Site {
	out := make([]simnet.Site, len(c.cfg.Sites))
	copy(out, c.cfg.Sites)
	return out
}

// Primary returns the write leader site.
func (c *Cluster) Primary() simnet.Site { return c.cfg.Primary }

// Mode returns the replication mode.
func (c *Cluster) Mode() Mode { return c.cfg.Mode }

// Shards returns the per-replica lock stripe count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Write accepts a post at the replica of site dc and returns the stored
// entry. Strong mode applies the write at every replica before returning;
// eventual mode schedules asynchronous propagation.
func (c *Cluster) Write(dc simnet.Site, id, author, body string) (Entry, error) {
	return c.WriteEntry(dc, Entry{ID: id, Author: author, Body: body})
}

// WriteEntry is Write with the full entry payload (dependency metadata).
func (c *Cluster) WriteEntry(dc simnet.Site, in Entry) (Entry, error) {
	origin, ok := c.replicas[dc]
	if !ok {
		return Entry{}, fmt.Errorf("store: no replica at %s", dc)
	}
	now := c.clock.Now()
	created := now
	if p := c.cfg.Policy.Precision; p > 0 {
		created = created.Truncate(p)
	}
	e := Entry{
		ID:         in.ID,
		Author:     in.Author,
		Body:       in.Body,
		DependsOn:  in.DependsOn,
		Origin:     dc,
		CreatedAt:  created,
		ArrivalSeq: c.seq.Add(1),
		epoch:      c.epoch.Load(),
	}
	if c.durable != nil {
		// Ack-after-fsync: the write is journaled (and synced) before it
		// becomes visible or is acknowledged, so a crash at any later
		// point cannot lose it.
		if err := c.durable.logWrite(e); err != nil {
			return Entry{}, err
		}
	}

	switch c.cfg.Mode {
	case Strong:
		for _, s := range c.cfg.Sites {
			c.apply(c.replicas[s], e, now)
		}
	case Eventual:
		if d := c.localDelay(e.ID, dc); d > 0 {
			c.enqueue(origin, dc, e, now.Add(d))
		} else {
			c.apply(origin, e, now)
		}
		for _, s := range c.cfg.Sites {
			if s == dc {
				continue
			}
			c.schedulePropagation(dc, s, e, now)
		}
	}
	return e, nil
}

// localDelay samples the visibility (indexing) delay for one entry at
// one replica, keyed so the draw is deterministic per (seed, entry,
// site).
func (c *Cluster) localDelay(id string, dst simnet.Site) time.Duration {
	d := c.cfg.LocalApplyDelay
	if j := c.cfg.LocalApplyJitter; j > 0 {
		k := detrand.NewKey(c.seed, "apply").Str(id).Str(string(dst))
		d += time.Duration(k.Intn(int64(j)))
	}
	return d
}

// schedulePropagation queues delivery of e from src to dst: the network
// one-way delay, plus (in backlogged epochs) the replication pipeline
// delays, plus the destination's indexing delay.
func (c *Cluster) schedulePropagation(src, dst simnet.Site, e Entry, now time.Time) {
	k := detrand.NewKey(c.seed, "prop").Str(e.ID).Str(string(dst))
	oneWay, err := c.net.OneWayU(src, dst, k.Str("net").Float64())
	if err != nil {
		// Unknown link: treat as a long but finite delay so entries
		// eventually converge rather than silently vanishing.
		oneWay = time.Second
	}
	delay := time.Duration(float64(oneWay)*c.cfg.PropagationFactor) + c.localDelay(e.ID, dst)
	if lag := time.Duration(c.epochLag.Load()); lag >= 0 {
		delay += c.cfg.PropagationBase + lag
		if j := c.cfg.PropagationJitter; j > 0 {
			delay += time.Duration(k.Str("jitter").Intn(int64(j)))
		}
	}
	c.enqueue(c.replicas[dst], src, e, now.Add(delay))
}

// enqueue adds a delivery due at `at` to the destination shard's pending
// heap and registers its head with the timer wheel.
func (c *Cluster) enqueue(r *replica, src simnet.Site, e Entry, at time.Time) {
	sh := r.shard(e.ID)
	sh.mu.Lock()
	heap.Push(&sh.pending, pendingDelivery{at: at, seq: c.schedSeq.Add(1), src: src, e: e})
	c.wheelSchedule(r, sh, sh.pending[0].at)
	sh.mu.Unlock()
}

// apply records e at the shard owning its ID.
func (c *Cluster) apply(r *replica, e Entry, now time.Time) {
	sh := r.shard(e.ID)
	sh.mu.Lock()
	c.applyLocked(sh, e, now)
	sh.mu.Unlock()
}

// applyLocked appends e to the shard's log slice if not already present.
// The epoch re-check happens here, under sh.mu: Reset bumps the epoch
// before clearing each shard under its lock, so an entry from before a
// Reset that reaches the shard after it was cleared observes the new
// epoch and is dropped instead of leaking into the new generation.
// Caller holds sh.mu.
func (c *Cluster) applyLocked(sh *shard, e Entry, now time.Time) {
	if e.epoch != c.epoch.Load() {
		return // stale entry from before a Reset
	}
	if _, dup := sh.appliedAt[e.ID]; dup {
		return
	}
	sh.appliedAt[e.ID] = now
	sh.recs = append(sh.recs, appliedEntry{e: e, at: now})
	sh.gen.Add(1)
}

// AppliedAt reports when dc's replica applied the entry with the given
// id, for white-box ground-truth analysis. ok is false if the entry has
// not (yet) been applied there.
func (c *Cluster) AppliedAt(dc simnet.Site, id string) (at time.Time, ok bool) {
	r, found := c.replicas[dc]
	if !found {
		return time.Time{}, false
	}
	sh := r.shard(id)
	sh.mu.Lock()
	at, ok = sh.appliedAt[id]
	sh.mu.Unlock()
	return at, ok
}

// gensCurrent reports whether a cached generation snapshot still matches
// the shards' live counters.
func (r *replica) gensCurrent(gens []uint64) bool {
	for i, sh := range r.shards {
		if sh.gen.Load() != gens[i] {
			return false
		}
	}
	return true
}

// sortApplied orders records by (apply time, ArrivalSeq) — the merged
// arrival order, matching the append-under-one-lock order of the
// pre-shard store.
func sortApplied(recs []appliedEntry) {
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].at.Equal(recs[j].at) {
			return recs[i].at.Before(recs[j].at)
		}
		return recs[i].e.ArrivalSeq < recs[j].e.ArrivalSeq
	})
}

// refreshLocked brings the cached timelines up to date. It collects only
// the entries each shard applied since the last refresh (per-shard
// offsets) and splices them into the cached merged timeline; because
// apply stamps are non-decreasing, the splice point is almost always the
// very end. A Reset (shard log shrank) falls back to a full rebuild.
// Caller holds r.cache.mu.
func (r *replica) refreshLocked(p TimestampPolicy) {
	cc := &r.cache
	n := len(r.shards)
	gens := make([]uint64, n)
	offsets := make([]int, n)
	full := cc.gens == nil
	var batch []appliedEntry
	for _, sh := range r.shards {
		sh.mu.Lock()
	}
	for i, sh := range r.shards {
		gens[i] = sh.gen.Load()
		offsets[i] = len(sh.recs)
		if !full && cc.offsets[i] > len(sh.recs) {
			full = true
		}
	}
	if full {
		total := 0
		for _, sh := range r.shards {
			total += len(sh.recs)
		}
		batch = make([]appliedEntry, 0, total)
		for _, sh := range r.shards {
			batch = append(batch, sh.recs...)
		}
	} else {
		for i, sh := range r.shards {
			batch = append(batch, sh.recs[cc.offsets[i]:]...)
		}
	}
	for i := n - 1; i >= 0; i-- {
		r.shards[i].mu.Unlock()
	}
	sortApplied(batch)
	switch {
	case full || len(cc.merged) == 0:
		cc.merged = batch
		cc.sorted = nil
	case len(batch) > 0:
		// The policy-sorted rendering is a pure set sort, so only the
		// new entries need merging into it. Appending past a published
		// slice's length is safe: readers' headers only cover [0:len).
		if cc.sorted != nil {
			add := make([]Entry, len(batch))
			for i, rec := range batch {
				add[i] = rec.e
			}
			sort.SliceStable(add, func(i, j int) bool { return p.less(add[i], add[j]) })
			if n := len(cc.sorted); n == 0 || !p.less(add[0], cc.sorted[n-1]) {
				cc.sorted = append(cc.sorted, add...)
			} else {
				cc.sorted = mergePolicySorted(cc.sorted, add, p)
			}
		}
		// Entries already cached with an apply stamp at or after the
		// batch's earliest must be re-ordered together with it; under a
		// monotone clock that is only the equal-stamp boundary.
		cut := len(cc.merged)
		for cut > 0 && !cc.merged[cut-1].at.Before(batch[0].at) {
			cut--
		}
		if cut == len(cc.merged) {
			cc.merged = append(cc.merged, batch...)
		} else {
			tail := make([]appliedEntry, 0, len(cc.merged)-cut+len(batch))
			tail = append(tail, cc.merged[cut:]...)
			tail = append(tail, batch...)
			sortApplied(tail)
			cc.merged = append(cc.merged[:cut:cut], tail...)
		}
	}
	cc.gens = gens
	cc.offsets = offsets
	cc.hybrid = nil // rendered against the previous merged timeline
}

// mergePolicySorted merges two policy-sorted entry slices into a new
// slice.
func mergePolicySorted(a, b []Entry, p TimestampPolicy) []Entry {
	out := make([]Entry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if p.less(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// timeline returns the replica's merged arrival-order log and, when
// needSorted, its policy-sorted rendering. The returned slices are
// immutable once published; Read extracts copies without holding the
// cache lock.
func (r *replica) timeline(p TimestampPolicy, needSorted bool) (merged []appliedEntry, sorted []Entry) {
	cc := &r.cache
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.gens == nil || !r.gensCurrent(cc.gens) {
		r.refreshLocked(p)
	}
	merged = cc.merged
	if needSorted {
		if cc.sorted == nil {
			cc.sorted = sortEntriesByPolicy(merged, p)
		}
		sorted = cc.sorted
	}
	return merged, sorted
}

// sortEntriesByPolicy extracts the entries and sorts them under the
// policy.
func sortEntriesByPolicy(recs []appliedEntry, p TimestampPolicy) []Entry {
	out := make([]Entry, len(recs))
	for i, rec := range recs {
		out[i] = rec.e
	}
	sort.SliceStable(out, func(i, j int) bool { return p.less(out[i], out[j]) })
	return out
}

// Read returns a copy of dc's log in the cluster's read-time order.
func (c *Cluster) Read(dc simnet.Site) ([]Entry, error) {
	r, ok := c.replicas[dc]
	if !ok {
		return nil, fmt.Errorf("store: no replica at %s", dc)
	}
	order := c.cfg.Order
	if order == OrderHybrid && !c.hybridOn.Load() {
		order = OrderTimestamp
	}
	switch order {
	case OrderArrival:
		merged, _ := r.timeline(c.cfg.Policy, false)
		out := make([]Entry, len(merged))
		for i, rec := range merged {
			out[i] = rec.e
		}
		return out, nil
	case OrderTimestamp:
		_, sorted := r.timeline(c.cfg.Policy, true)
		out := make([]Entry, len(sorted))
		copy(out, sorted)
		return out, nil
	default: // OrderHybrid
		return r.hybridTimeline(c.cfg.Policy, c.clock.Now().Add(-c.cfg.NormalizeAfter)), nil
	}
}

// hybridTimeline renders the OrderHybrid timeline through the cutoff-
// keyed cache: entries created before the cutoff in policy order, the
// rest in arrival order. Instead of re-partitioning and re-sorting the
// whole timeline per read, it exploits two invariants:
//
//   - The policy compares CreatedAt first and the cutoff partitions by
//     CreatedAt, so no policy-equal pair straddles the cutoff and the
//     normalized partition is exactly a prefix of the cached
//     policy-sorted timeline (both stable over the same arrival order).
//   - CreatedAt never exceeds the apply stamp, so only the merged
//     suffix with apply stamps at or after the cutoff can hold fresh
//     entries — found by binary search, scanned in arrival order.
//
// The rendered slice is memoized per (generation snapshot, cutoff);
// under the discrete-event clock many consecutive reads share a virtual
// instant and hit it outright.
func (r *replica) hybridTimeline(p TimestampPolicy, cutoff time.Time) []Entry {
	cc := &r.cache
	cc.mu.Lock()
	if cc.gens == nil || !r.gensCurrent(cc.gens) {
		r.refreshLocked(p)
	}
	if cc.hybrid == nil || !cc.hybridCutoff.Equal(cutoff) {
		if cc.sorted == nil {
			cc.sorted = sortEntriesByPolicy(cc.merged, p)
		}
		merged, sorted := cc.merged, cc.sorted
		i := sort.Search(len(merged), func(i int) bool { return !merged[i].at.Before(cutoff) })
		fresh := make([]Entry, 0, len(merged)-i)
		for _, rec := range merged[i:] {
			if !rec.e.CreatedAt.Before(cutoff) {
				fresh = append(fresh, rec.e)
			}
		}
		out := make([]Entry, 0, len(merged))
		out = append(out, sorted[:len(merged)-len(fresh)]...)
		cc.hybrid = append(out, fresh...)
		cc.hybridCutoff = cutoff
	}
	out := make([]Entry, len(cc.hybrid))
	copy(out, cc.hybrid)
	cc.mu.Unlock()
	return out
}

// Len returns the number of entries at dc's replica.
func (c *Cluster) Len(dc simnet.Site) int {
	r, ok := c.replicas[dc]
	if !ok {
		return 0
	}
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += len(sh.recs)
		sh.mu.Unlock()
	}
	return n
}

// Reset clears every replica and starts a new epoch: propagations still
// in flight from before the Reset are dropped, their pending queues
// emptied and wheel registrations dropped.
func (c *Cluster) Reset() {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	c.resetTo(c.epoch.Load() + 1)
}

// BeginEpoch jumps the cluster to epoch base if it is ahead of the
// current epoch, clearing all replicas exactly like Reset. Campaigns
// call it at the start of each test with a base derived from the
// TestID so the epoch counter — and the per-epoch behaviour draws
// keyed by it — is a pure function of the test being run rather than
// of how many Resets happened before it. That makes a resumed
// campaign's epoch sequence identical to an uninterrupted one. Bases
// must leave headroom between tests (callers stride them) because
// each ordinary Reset still advances the epoch by one.
func (c *Cluster) BeginEpoch(base uint64) {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	if base <= c.epoch.Load() {
		return
	}
	c.resetTo(base)
}

// resetTo clears every replica and installs epoch. Caller holds resetMu.
func (c *Cluster) resetTo(epoch uint64) {
	if c.durable != nil {
		c.durable.logReset(epoch)
	}
	c.epoch.Store(epoch)
	c.epochLag.Store(int64(c.sampleEpochLag(epoch)))
	c.hybridOn.Store(c.sampleEpochHybrid(epoch))
	for _, site := range c.cfg.Sites {
		r := c.replicas[site]
		for _, sh := range r.shards {
			sh.mu.Lock()
			sh.recs = nil
			sh.appliedAt = make(map[string]time.Time)
			sh.pending = nil
			c.wheelUnregister(sh)
			sh.gen.Add(1)
			sh.mu.Unlock()
		}
		// Drop the cached timelines outright. The incremental refresh
		// detects a Reset by a shard log shrinking below its cached
		// offset, which misses the case where the shard has already
		// re-grown past that offset by the next Read; forcing a full
		// rebuild here closes that window. (No shard lock is held, so
		// this cannot invert the cache.mu -> sh.mu order used by reads.)
		r.cache.mu.Lock()
		r.cache.gens = nil
		r.cache.offsets = nil
		r.cache.merged = nil
		r.cache.sorted = nil
		r.cache.hybrid = nil
		r.cache.hybridCutoff = time.Time{}
		r.cache.mu.Unlock()
	}
}
