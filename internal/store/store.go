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
// A replica is one applied log under one mutex, kept in
// (apply time, ArrivalSeq) order where entries are applied, with the
// policy-sorted log and one immutable rendering of the timeline reads
// share beside it. Every pending
// replication delivery of the cluster waits in one min-heap ordered by
// (due time, schedule order) behind a single clock timer (wheel.go),
// so propagation costs one timer event per due instant, not one per
// entry.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
	"conprobe/internal/wal"
)

// Post is one message as a read renders it: what a service API shows of
// an entry. The slices of posts Read returns are shared between readers:
// treat them, and the posts in them, as read-only.
type Post struct {
	// ID is the client-assigned unique identifier.
	ID string
	// Author is the posting agent's label.
	Author string
	// Body is the message content.
	Body string
	// CreatedAt is the service-assigned creation stamp at the precision
	// the service exposes.
	CreatedAt time.Time
	// DependsOn optionally names a post this one causally follows (the
	// writer reacted to observing it). Services ignore it; the session
	// middleware uses it to enforce Writes Follows Reads by delaying
	// delivery of a post until its cause is visible.
	DependsOn string
}

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

// post is what a read shows of e.
func (e Entry) post() Post {
	return Post{ID: e.ID, Author: e.Author, Body: e.Body, CreatedAt: e.CreatedAt, DependsOn: e.DependsOn}
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
	// Durable, when non-nil, fsyncs each accepted write to a log before
	// WriteEntry returns. See Durable.
	Durable *Durable
}

// Cluster is a replicated log spanning several data centers.
type Cluster struct {
	clock vtime.Clock
	net   *simnet.Network
	cfg   Config

	seed int64

	seq      atomic.Uint64 // cluster-wide acceptance order (ArrivalSeq)
	epoch    atomic.Uint64
	epochLag atomic.Int64 // ns; negative sentinel marks a fast epoch
	hybridOn atomic.Bool  // whether the epoch surfaces arrival order under OrderHybrid

	// resetMu serializes Reset (epoch bump + per-epoch resampling); the
	// hot paths never take it.
	resetMu sync.Mutex

	replicas map[simnet.Site]*replica

	// pending holds every delivery still in flight (see wheel.go).
	pending deliveries

	// log is Config.Durable's write log; nil without one.
	log *wal.Log
}

// replica is the per-DC log and the renderings reads are served from.
type replica struct {
	site simnet.Site

	mu sync.Mutex
	// log is the applied entries in (apply time, ArrivalSeq) order — the
	// replica's arrival order. apply inserts at the right slot, so the
	// order holds between calls and no read re-derives it.
	log       []appliedEntry
	appliedAt map[string]time.Time
	// sorted is log under the timestamp policy, extended by each apply;
	// kept only when the cluster's read order needs it.
	sorted []Entry
	// view is the timeline reads share: sorted[:viewK], then every other
	// entry in arrival order. Rendered by the first read that needs it and
	// never written again; apply and Reset drop it rather than touch it.
	view  []Post
	viewK int
}

// appliedEntry pairs an entry with the time its replica applied it.
type appliedEntry struct {
	e  Entry
	at time.Time
}

// before orders applied entries by (apply time, ArrivalSeq).
func (a appliedEntry) before(b appliedEntry) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.e.ArrivalSeq < b.e.ArrivalSeq
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
	c := &Cluster{
		clock:    clock,
		net:      net,
		cfg:      cfg,
		seed:     seed,
		replicas: make(map[simnet.Site]*replica, len(cfg.Sites)),
	}
	for _, s := range cfg.Sites {
		c.replicas[s] = &replica{site: s, appliedAt: make(map[string]time.Time)}
	}
	c.epochLag.Store(int64(c.sampleEpochLag(0)))
	c.hybridOn.Store(c.sampleEpochHybrid(0))
	if d := cfg.Durable; d != nil {
		if err := os.MkdirAll(d.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: durable dir: %w", err)
		}
		log, rep, err := wal.Open(filepath.Join(d.Dir, "wal-0.log"), wal.Options{})
		if err == nil && len(rep.Records) > 0 {
			log.Close()
			err = fmt.Errorf("store: %s holds writes no Cluster reads back; serve a durable store from a one-node cluster leader", d.Dir)
		}
		if err != nil {
			return nil, err
		}
		c.log = log
	}
	return c, nil
}

// sampleEpochHybrid decides whether the given epoch surfaces arrival
// order under OrderHybrid.
func (c *Cluster) sampleEpochHybrid(epoch uint64) bool {
	return detrand.NewKey(c.seed, "epoch").Uint(epoch).Str("hybrid").Float64() < c.cfg.HybridEpochProb
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
	if c.log != nil {
		// Ack after fsync: the write is on disk before it is visible.
		raw, _ := json.Marshal(e) // an Entry always encodes
		if err := c.log.Append(raw); err != nil {
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

// apply records e at r unless r already holds it. The epoch re-check
// happens here, under r.mu: Reset bumps the epoch before clearing each
// replica under its lock, so an entry from before a Reset that reaches
// the replica after it was cleared observes the new epoch and is
// dropped instead of leaking into the new generation.
func (c *Cluster) apply(r *replica, e Entry, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.epoch != c.epoch.Load() {
		return // stale entry from before a Reset
	}
	if _, dup := r.appliedAt[e.ID]; dup {
		return
	}
	r.appliedAt[e.ID] = now
	// Apply stamps are non-decreasing under a monotone clock, so the
	// slot is almost always the end.
	rec := appliedEntry{e: e, at: now}
	i := len(r.log)
	for i > 0 && rec.before(r.log[i-1]) {
		i--
	}
	r.log = slices.Insert(r.log, i, rec)
	if c.cfg.Order != OrderArrival {
		p := c.cfg.Policy
		j := sort.Search(len(r.sorted), func(j int) bool { return p.less(e, r.sorted[j]) })
		r.sorted = slices.Insert(r.sorted, j, e)
	}
	r.view = nil // rendered from the previous log; its readers keep it
}

// AppliedAt reports when dc's replica applied the entry with the given
// id, for white-box ground-truth analysis. ok is false if the entry has
// not (yet) been applied there.
func (c *Cluster) AppliedAt(dc simnet.Site, id string) (at time.Time, ok bool) {
	r, found := c.replicas[dc]
	if !found {
		return time.Time{}, false
	}
	r.mu.Lock()
	at, ok = r.appliedAt[id]
	r.mu.Unlock()
	return at, ok
}

// Read returns the posts of dc's log in the cluster's read-time order.
// The slice is the replica's shared rendering, not a copy — every read
// returns the same backing array until an apply, a Reset or (under
// OrderHybrid) the normalize cutoff passing another entry — so callers
// must not write to it; its length is its capacity, so an append
// reallocates. The store never writes to a rendering it has handed out
// either. An empty replica renders as a non-nil empty slice.
func (c *Cluster) Read(dc simnet.Site) ([]Post, error) {
	r, ok := c.replicas[dc]
	if !ok {
		return nil, fmt.Errorf("store: no replica at %s", dc)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// k is how many entries the timeline shows in policy order: all of
	// sorted (empty under OrderArrival) or, while a hybrid epoch surfaces
	// arrival order, those created before the normalize cutoff — a prefix
	// of sorted, because the policy compares CreatedAt first.
	k := len(r.sorted)
	if c.cfg.Order == OrderHybrid && c.hybridOn.Load() {
		cutoff := c.clock.Now().Add(-c.cfg.NormalizeAfter)
		k = sort.Search(k, func(i int) bool { return !r.sorted[i].CreatedAt.Before(cutoff) })
	}
	if r.view == nil || r.viewK != k {
		r.view, r.viewK = r.render(k, c.cfg.Policy), k
	}
	return r.view, nil
}

// render builds the timeline showing sorted[:k] and then the rest of the
// log in arrival order. The policy order is strict (ArrivalSeq is unique),
// so an entry is outside that prefix exactly when it sorts after the
// prefix's last: the timeline depends on (log, k) alone. Every entry is
// shown once, so the result is exactly as long as its capacity. Caller
// holds r.mu.
func (r *replica) render(k int, p TimestampPolicy) []Post {
	out := make([]Post, 0, len(r.log))
	for _, e := range r.sorted[:k] {
		out = append(out, e.post())
	}
	for _, rec := range r.log {
		if k == 0 || p.less(r.sorted[k-1], rec.e) {
			out = append(out, rec.e.post())
		}
	}
	return out
}

// Len returns the number of entries at dc's replica.
func (c *Cluster) Len(dc simnet.Site) int {
	r, ok := c.replicas[dc]
	if !ok {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}

// Reset clears every replica and starts a new epoch: propagations still
// in flight from before the Reset are dropped.
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
	// Empty the delivery heap before the epoch moves: a racing old-epoch
	// write that queues after this is dropped by the epoch checks, while
	// emptying afterwards could discard a new-epoch delivery.
	c.pending.mu.Lock()
	c.pending.queue = c.pending.queue[:0]
	c.pending.mu.Unlock()
	c.epoch.Store(epoch)
	c.epochLag.Store(int64(c.sampleEpochLag(epoch)))
	c.hybridOn.Store(c.sampleEpochHybrid(epoch))
	for _, r := range c.replicas {
		r.mu.Lock()
		r.log = r.log[:0]
		clear(r.appliedAt)
		r.sorted = r.sorted[:0]
		r.view = nil
		r.mu.Unlock()
	}
}

// Durable appends each write a Cluster accepts to Dir/wal-0.log (Dir is
// created if absent) and acknowledges it only after the fsync. Nothing
// reads the log back, so a Dir whose log already holds records is
// refused rather than silently dropped. The durable standalone store is
// a one-node cluster leader (consvc -role leader -data-dir); this type
// remains for the store layer's benchmark row in bench/layers.go.
type Durable struct{ Dir string }

// Close releases a Durable cluster's log. No-op on any other cluster.
func (c *Cluster) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}
