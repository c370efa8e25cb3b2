// Package clustertest is a deterministic harness for the replicated
// cluster: real cluster.Nodes wired over an in-process transport on a
// virtual clock, with scriptable partitions, delays, kills and
// restarts. Elections are timing protocols, so testing them against
// wall time is testing the scheduler's mood; here every timer firing
// and message delivery happens at a virtual instant derived only from
// the seed, which makes election-safety and log-matching property runs
// reproducible byte for byte — the failing seed IS the repro.
//
// Timers and message deliveries are events on one vtime.Sim, fired one
// callback at a time in (time, sequence) order while Clock.RunFor steps
// it. Node code never blocks inside the harness (writes go through
// ProposeWrite, not the quorum-waiting Write), so every callback runs to
// completion and the step never stalls.
package clustertest

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"conprobe/internal/clocksync"
	"conprobe/internal/cluster"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// epoch is the fixed virtual start instant; transcripts reference
// offsets from it, never the host clock.
var epoch = time.Unix(0, 0).UTC()

// Clock is the harness's virtual clock, stepped by RunFor.
type Clock = vtime.Sim

// NewClock starts a virtual clock at the fixed epoch.
func NewClock() *Clock { return vtime.NewSim(epoch) }

// Tuning for harness nodes. Everything is virtual time, so the values
// only fix the ratios: pulls and heartbeats well under the election
// timeout, snapshots frequent enough that catch-up exercises the
// install path.
const (
	pullInterval      = 50 * time.Millisecond
	heartbeatInterval = 50 * time.Millisecond
	electionTimeout   = 300 * time.Millisecond
	snapshotEvery     = 8
	minHop            = 1 * time.Millisecond
	maxHop            = 20 * time.Millisecond
	// clockSkew is the configured drift bound; the chaos schedule steps
	// node clocks anywhere inside [-clockSkew, 0], so lease reads run
	// against clocks that are actually wrong by up to the bound.
	clockSkew = 30 * time.Millisecond
	// snapChunk is tiny so every snapshot install is a multi-chunk,
	// CRC-verified, resumable transfer rather than a single message.
	snapChunk = 256
	// dupPer10k/reorderPer10k: every harness run duplicates ~2% of
	// requests (at-least-once delivery) and holds ~3% of messages back
	// past later traffic — both legal network behaviors every handler
	// must shrug off.
	dupPer10k     = 200
	reorderPer10k = 300
)

// memSvc is the minimal in-memory service.Service replicated by harness
// nodes: no simulated network, no sleeps — determinism lives in the
// clock and the fabric, not in the service.
type memSvc struct {
	mu    sync.Mutex
	posts []service.Post
}

func (m *memSvc) Name() string { return "mem" }

func (m *memSvc) Write(from simnet.Site, p service.Post) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posts = append(m.posts, p)
	return nil
}

func (m *memSvc) Read(from simnet.Site, reader string) ([]service.Post, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]service.Post(nil), m.posts...), nil
}

func (m *memSvc) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posts = nil
	return nil
}

// Cluster drives a fixed-membership replicated deployment through a
// scripted failure schedule, recording a transcript of every protocol
// event. Two runs with the same seed produce identical transcripts, so
// a failing seed is a complete repro.
type Cluster struct {
	t     *testing.T
	Clock *Clock
	Net   *Net
	Seed  int64
	dir   string

	// IDs is the current membership, sorted; urls maps ID to fabric
	// address. AddJoiner and Retire grow and shrink it.
	IDs  []string
	urls map[string]string

	nodes map[string]*cluster.Node
	live  map[string]bool
	// joiner marks nodes booted as pure-pull followers (no vote rights
	// yet): they stay in that mode across restarts until a committed
	// configuration admits them.
	joiner map[string]bool
	// clocks holds each node's skewed view of Clock, kept across
	// restarts; SetSkew on it is a wall-clock jump. Timers still fire on
	// Clock: interval timers are monotonic, and a Since that spans a jump
	// comes out wrong by it — the hazard the 2·ClockSkew lease margin
	// must absorb.
	clocks map[string]*clocksync.SkewedClock

	writeSeq int
	// reads tracks in-flight linearizable reads: each remembers the
	// acked-write ledger as of its start, the floor its eventual result
	// must cover.
	reads []*pendingRead
	// served holds every write ID a lease or quorum read returned, and
	// LinServed counts those reads: AssertConverged requires each ID on
	// every node, the ceiling of a linearizable read.
	served    map[string]bool
	LinServed int

	// Transcript is the ordered protocol event log; the determinism test
	// compares it line by line across same-seed runs.
	Transcript []string
	// Acked holds every write ID a leader committed (quorum-acked). The
	// core safety property: no Acked ID may ever be missing from a
	// converged cluster.
	Acked      map[string]bool
	AckedOrder []string
	// LeadersByTerm records which nodes announced leadership in each
	// term; election safety demands at most one per term.
	LeadersByTerm map[uint64]map[string]bool
}

// New boots a size-node cluster (n1..nN), every node a follower with
// full peer lists — leadership is only ever won by election.
func New(t *testing.T, seed int64, size int) *Cluster {
	t.Helper()
	clock := NewClock()
	c := &Cluster{
		t:             t,
		Clock:         clock,
		Net:           NewNet(clock, seed, minHop, maxHop),
		Seed:          seed,
		dir:           t.TempDir(),
		urls:          make(map[string]string),
		nodes:         make(map[string]*cluster.Node),
		live:          make(map[string]bool),
		joiner:        make(map[string]bool),
		clocks:        make(map[string]*clocksync.SkewedClock),
		Acked:         make(map[string]bool),
		served:        make(map[string]bool),
		LeadersByTerm: make(map[uint64]map[string]bool),
	}
	c.Net.EnableDeliveryChaos(dupPer10k, reorderPer10k)
	for i := 1; i <= size; i++ {
		id := fmt.Sprintf("n%d", i)
		c.IDs = append(c.IDs, id)
		c.urls[id] = "node://" + id
	}
	for _, id := range c.IDs {
		c.startNode(id)
	}
	t.Cleanup(func() {
		for _, id := range c.IDs {
			if n := c.nodes[id]; n != nil {
				n.Kill()
			}
		}
	})
	return c
}

// peersOf lists every established member URL except id's own. Joiners
// are excluded: a node's static boot config must never anticipate a
// membership change — admission flows only through the replicated
// config entry.
func (c *Cluster) peersOf(id string) []string {
	peers := make([]string, 0, len(c.IDs)-1)
	for _, other := range c.IDs {
		if other != id && !c.joiner[other] {
			peers = append(peers, c.urls[other])
		}
	}
	return peers
}

// startNode creates (or restarts, from its surviving DataDir) the node
// process at id and binds it to the fabric. A joiner boots as a
// pure-pull follower — no peers, no vote rights — until a committed
// configuration admits it; its recovered config (which beats the static
// flags) flips it to a voter automatically after that.
func (c *Cluster) startNode(id string) {
	c.t.Helper()
	cfg := cluster.Config{
		NodeID:             id,
		Role:               cluster.RoleFollower,
		SelfURL:            c.urls[id],
		Peers:              c.peersOf(id),
		DataDir:            filepath.Join(c.dir, id),
		PullInterval:       pullInterval,
		SnapshotEvery:      snapshotEvery,
		ElectionTimeout:    electionTimeout,
		HeartbeatInterval:  heartbeatInterval,
		ClockSkew:          clockSkew,
		SnapshotChunkBytes: snapChunk,
		NoSync:             true,
		Seed:               c.Seed,
		Clock:              c.clockOf(id),
		Transport:          c.Net.TransportFor(c.urls[id]),
		OnEvent:            c.observe,
	}
	if c.joiner[id] {
		cfg.Peers = nil
		cfg.LeaderURL = c.joinHint(id)
	}
	n, err := cluster.NewNode(&memSvc{}, cfg)
	if err != nil {
		c.fatalf("starting %s: %v", id, err)
	}
	c.nodes[id] = n
	c.live[id] = true
	c.Net.SetNode(c.urls[id], n)
}

// clockOf returns id's skewed clock, creating it at zero skew.
func (c *Cluster) clockOf(id string) *clocksync.SkewedClock {
	sc := c.clocks[id]
	if sc == nil {
		sc = clocksync.NewSkewedClock(c.Clock, 0)
		c.clocks[id] = sc
	}
	return sc
}

// SetSkew jumps id's wall clock to off behind true time (off is clamped
// into [-clockSkew, 0], the configured drift bound).
func (c *Cluster) SetSkew(id string, off time.Duration) {
	if off > 0 {
		off = 0
	}
	if off < -clockSkew {
		off = -clockSkew
	}
	c.clockOf(id).SetSkew(off)
}

// joinHint picks the pull target for a joiner: the current leader when
// one exists, else any established member (pulls follow leader hints
// from there).
func (c *Cluster) joinHint(id string) string {
	if l := c.Leader(); l != "" && l != id {
		return c.urls[l]
	}
	for _, other := range c.IDs {
		if other != id && !c.joiner[other] {
			return c.urls[other]
		}
	}
	return ""
}

// observe appends one protocol event to the transcript and folds it
// into the safety ledgers. Called under the emitting node's lock: it
// records and returns, never calling back into any node.
func (c *Cluster) observe(ev cluster.Event) {
	line := fmt.Sprintf("%-9s %s %s term=%d idx=%d",
		c.Clock.Now().Sub(epoch), ev.Node, ev.Type, ev.Term, ev.Index)
	if ev.Detail != "" {
		line += " " + ev.Detail
	}
	if len(ev.IDs) > 0 {
		line += " ids=" + strings.Join(ev.IDs, ",")
	}
	c.Transcript = append(c.Transcript, line)
	switch ev.Type {
	case cluster.EventBecomeLeader:
		m := c.LeadersByTerm[ev.Term]
		if m == nil {
			m = make(map[string]bool)
			c.LeadersByTerm[ev.Term] = m
		}
		m[ev.Node] = true
	case cluster.EventCommit:
		for _, id := range ev.IDs {
			if !c.Acked[id] {
				c.Acked[id] = true
				c.AckedOrder = append(c.AckedOrder, id)
			}
		}
	}
}

// RunFor advances virtual time, delivering messages and firing timers.
func (c *Cluster) RunFor(d time.Duration) { c.Clock.RunFor(d) }

// Kill crashes the process at id: no final compaction, the fabric drops
// everything to and from it. The DataDir survives for Restart.
func (c *Cluster) Kill(id string) {
	if !c.live[id] {
		return
	}
	c.nodes[id].Kill()
	c.live[id] = false
	c.Net.KillNode(c.urls[id])
}

// Restart boots a fresh process at id over the surviving DataDir,
// exercising real WAL+snapshot+term recovery.
func (c *Cluster) Restart(id string) {
	if c.live[id] {
		return
	}
	c.startNode(id)
}

// Partition severs the link between a and b (both directions).
func (c *Cluster) Partition(a, b string) { c.Net.Cut(c.urls[a], c.urls[b]) }

// Isolate severs id from every other member.
func (c *Cluster) Isolate(id string) {
	for _, other := range c.IDs {
		if other != id {
			c.Partition(id, other)
		}
	}
}

// LagLink adds d of one-way delay to every hop between a and b, so
// responses land long after the protocol episode that solicited them.
func (c *Cluster) LagLink(a, b string, d time.Duration) { c.Net.Lag(c.urls[a], c.urls[b], d) }

// Heal restores every severed link and clears all added lag.
func (c *Cluster) Heal() { c.Net.HealAll() }

// LiveCount returns how many processes are up.
func (c *Cluster) LiveCount() int {
	n := 0
	for _, id := range c.IDs {
		if c.live[id] {
			n++
		}
	}
	return n
}

// Leader returns the live node currently claiming leadership at the
// highest term, or "" if none claims it. During partitions two nodes
// can claim at once; the higher term is the one that can still commit.
func (c *Cluster) Leader() string {
	best, bestTerm := "", uint64(0)
	for _, id := range c.IDs {
		if !c.live[id] {
			continue
		}
		n := c.nodes[id]
		if n.Role() == cluster.RoleLeader {
			if t := n.Term(); best == "" || t > bestTerm {
				best, bestTerm = id, t
			}
		}
	}
	return best
}

// TryWrite proposes one write at the current leader, if any, returning
// the write's ID ("" when no leader accepted it). The write is acked —
// and enters the loss-check ledger — only when a leader later commits
// it; a proposed-but-uncommitted write has an unknown outcome and may
// legitimately vanish.
func (c *Cluster) TryWrite() string {
	id := c.Leader()
	if id == "" {
		return ""
	}
	c.writeSeq++
	wid := fmt.Sprintf("w%d", c.writeSeq)
	_, err := c.nodes[id].ProposeWrite("harness", service.Post{
		ID: wid, Author: id, Body: fmt.Sprintf("write %d via %s", c.writeSeq, id),
	})
	if err != nil {
		return ""
	}
	return wid
}

// pendingRead is one in-flight linearizable read: the ticket proves
// leadership, acked is the quorum-acked ledger as of the read's start —
// the floor its result must cover (a lease or quorum read may never
// return less than everything acked before it began).
type pendingRead struct {
	node   string
	mode   cluster.ReadMode
	ticket *cluster.ReadTicket
	acked  []string
}

// StartLinRead begins a lease or quorum read at the current leader. A
// refused read (no leader, lost leadership) is not a safety event —
// blocked-not-stale is the contract — so refusals are simply dropped.
func (c *Cluster) StartLinRead(mode cluster.ReadMode) {
	id := c.Leader()
	if id == "" {
		return
	}
	ticket, err := c.nodes[id].StartRead(mode)
	if err != nil {
		return
	}
	c.reads = append(c.reads, &pendingRead{
		node: id, mode: mode, ticket: ticket,
		acked: append([]string(nil), c.AckedOrder...),
	})
}

// settleReads polls every in-flight read: completed ones are served,
// checked against their acked-at-start floor and recorded for the
// ceiling check in AssertConverged; failed ones (leadership lost, node
// killed, deadline) are dropped as legitimate refusals.
func (c *Cluster) settleReads() {
	c.t.Helper()
	rest := c.reads[:0]
	for _, r := range c.reads {
		if !c.live[r.node] {
			continue // process died mid-read: the client saw an error, not stale data
		}
		ready, err := r.ticket.Ready()
		if err != nil {
			continue
		}
		if !ready {
			rest = append(rest, r)
			continue
		}
		posts, err := c.nodes[r.node].Read("harness", "lin-checker")
		if err != nil {
			c.fatalf("%s read on %s failed after confirmation: %v", r.mode, r.node, err)
		}
		have := make(map[string]bool, len(posts))
		for _, p := range posts {
			have[p.ID] = true
			c.served[p.ID] = true
		}
		c.LinServed++
		for _, wid := range r.acked {
			if !have[wid] {
				c.fatalf("stale %s read on %s: write %s was quorum-acked before the read began but is missing from the result",
					r.mode, r.node, wid)
			}
		}
	}
	c.reads = rest
}

// drainReads runs the clock until every in-flight read completes or
// fails (ticket deadlines bound this).
func (c *Cluster) drainReads() {
	c.t.Helper()
	deadline := c.Clock.Now().Add(30 * time.Second)
	for len(c.reads) > 0 {
		c.RunFor(100 * time.Millisecond)
		c.settleReads()
		if c.Clock.Now().After(deadline) {
			c.fatalf("%d linearizable reads neither completed nor failed", len(c.reads))
		}
	}
}

// AddJoiner boots a brand-new node that replicates from the current
// leader as a non-voting pure-pull follower. It gains vote rights only
// when a committed configuration admits it (MarkAdmitted then makes
// restarts boot it as a full member).
func (c *Cluster) AddJoiner(id string) {
	c.t.Helper()
	if c.urls[id] != "" {
		c.fatalf("AddJoiner(%s): node already exists", id)
	}
	c.IDs = append(c.IDs, id)
	c.urls[id] = "node://" + id
	c.joiner[id] = true
	c.startNode(id)
}

// MarkAdmitted records that a committed configuration now includes
// these nodes: restarts boot them as full members.
func (c *Cluster) MarkAdmitted(ids ...string) {
	for _, id := range ids {
		c.joiner[id] = false
	}
}

// Retire kills id and removes it from the harness membership — the
// operator decommissioning a machine after a shrink removed it from the
// voting config. Convergence checks stop covering it.
func (c *Cluster) Retire(id string) {
	c.Kill(id)
	delete(c.nodes, id)
	delete(c.urls, id)
	delete(c.live, id)
	delete(c.joiner, id)
	ids := c.IDs[:0]
	for _, other := range c.IDs {
		if other != id {
			ids = append(ids, other)
		}
	}
	c.IDs = ids
}

// Reconfigure proposes a membership change at the current leader,
// returning the joint entry's index (0 when no leader accepted it —
// the schedule just retries later).
func (c *Cluster) Reconfigure(add []cluster.Member, remove []string) uint64 {
	id := c.Leader()
	if id == "" {
		return 0
	}
	idx, err := c.nodes[id].Reconfigure(add, remove)
	if err != nil {
		return 0
	}
	return idx
}

// MembersSettled reports whether the current leader's configuration is
// committed, non-joint, and has exactly want voting members.
func (c *Cluster) MembersSettled(want int) bool {
	id := c.Leader()
	if id == "" {
		return false
	}
	m := c.nodes[id].Membership()
	return !m.Joint() && len(m.New) == want && c.nodes[id].ConfigSettled()
}

// AssertElectionSafety fails if any term ever had two leaders.
func (c *Cluster) AssertElectionSafety() {
	c.t.Helper()
	for term, nodes := range c.LeadersByTerm {
		if len(nodes) > 1 {
			names := make([]string, 0, len(nodes))
			for id := range nodes {
				names = append(names, id)
			}
			c.fatalf("election safety violated: term %d has %d leaders (%s)",
				term, len(nodes), strings.Join(names, ","))
		}
	}
}

// AssertLogMatching fails if two live nodes disagree on the op at any
// (index, term) position both hold: agreeing there means agreeing on
// the whole prefix, so a mismatch is divergence the protocol permitted.
func (c *Cluster) AssertLogMatching() {
	c.t.Helper()
	for i, a := range c.IDs {
		if !c.live[a] {
			continue
		}
		opsA := make(map[uint64]cluster.Op)
		for _, op := range c.nodes[a].TailOps() {
			opsA[op.Index] = op
		}
		for _, b := range c.IDs[i+1:] {
			if !c.live[b] {
				continue
			}
			for _, opB := range c.nodes[b].TailOps() {
				opA, ok := opsA[opB.Index]
				if !ok || opA.Term != opB.Term {
					continue // different histories at this index are allowed until commit
				}
				if opA.ID != opB.ID || opA.Kind != opB.Kind {
					c.fatalf("log matching violated at index %d term %d: %s has (%s,%s), %s has (%s,%s)",
						opB.Index, opB.Term, a, opA.Kind, opA.ID, b, opB.Kind, opB.ID)
				}
			}
		}
	}
}

// AssertConverged heals every partition, restarts every dead node, and
// runs until the whole cluster agrees on one committed log head — then
// verifies that every quorum-acked write, and every write a lease or
// quorum read returned, is readable on every node. The first is the
// no-acked-write-lost property the failover drill exists to check; the
// second is the ceiling of a linearizable read: it never returns a write
// that is later lost.
func (c *Cluster) AssertConverged() {
	c.t.Helper()
	c.Heal()
	for _, id := range c.IDs {
		c.Restart(id)
	}
	deadline := c.Clock.Now().Add(2 * time.Minute)
	for {
		c.RunFor(100 * time.Millisecond)
		if c.convergedNow() {
			break
		}
		if c.Clock.Now().After(deadline) {
			c.fatalf("cluster failed to converge within 2m of virtual time: %s", c.heads())
		}
	}
	for _, id := range c.IDs {
		posts, err := c.nodes[id].Read("harness", "checker")
		if err != nil {
			c.fatalf("reading %s: %v", id, err)
		}
		have := make(map[string]bool, len(posts))
		for _, p := range posts {
			have[p.ID] = true
		}
		for _, wid := range c.AckedOrder {
			if !have[wid] {
				c.fatalf("acked write lost: %s is missing quorum-acked write %s (%d posts present, %d acked)",
					id, wid, len(posts), len(c.AckedOrder))
			}
		}
		for wid := range c.served {
			if !have[wid] {
				c.fatalf("linearizable read served a lost write: %s is missing %s, which a lease or quorum read returned",
					id, wid)
			}
		}
	}
	c.AssertElectionSafety()
	c.AssertLogMatching()
}

// convergedNow reports whether one leader exists and every node sits at
// its log head with all of it committed, and so applied.
func (c *Cluster) convergedNow() bool {
	leader := c.Leader()
	if leader == "" {
		return false
	}
	head := c.nodes[leader].LastIndex()
	for _, id := range c.IDs {
		if n := c.nodes[id]; n.LastIndex() != head || n.CommitIndex() != head {
			return false
		}
	}
	return true
}

// heads describes every node's log head, for failure messages.
func (c *Cluster) heads() string {
	parts := make([]string, 0, len(c.IDs))
	for _, id := range c.IDs {
		n := c.nodes[id]
		parts = append(parts, fmt.Sprintf("%s{live=%t role=%s term=%d last=%d commit=%d}",
			id, c.live[id], n.Role(), n.Term(), n.LastIndex(), n.CommitIndex()))
	}
	return strings.Join(parts, " ")
}

// fatalf fails the test with the seed and the transcript tail — the
// full repro recipe.
func (c *Cluster) fatalf(format string, args ...any) {
	c.t.Helper()
	tail := c.Transcript
	if len(tail) > 40 {
		tail = tail[len(tail)-40:]
	}
	c.t.Fatalf("seed %d: %s\ntranscript tail:\n  %s",
		c.Seed, fmt.Sprintf(format, args...), strings.Join(tail, "\n  "))
}
