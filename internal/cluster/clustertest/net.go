package clustertest

import (
	"errors"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/detrand"
)

// errUnreachable is what a cut link or dead peer answers with. The
// harness always completes an RPC — with this error when delivery is
// impossible — because node code keys in-flight bookkeeping off the
// done callback, exactly as a real HTTP client eventually times out.
var errUnreachable = errors.New("clustertest: peer unreachable")

// Net is the in-process message fabric. Each RPC becomes two scheduled
// events — request delivery at the target, response delivery back at
// the source — with per-message deterministic delays drawn from the
// seed. Reachability (kills, partitions) is evaluated at delivery time,
// not send time, so a partition dropped mid-flight behaves like a real
// one.
//
// Net is not thread-safe: the harness calls it between steps, and the
// Clock fires its events one callback at a time.
type Net struct {
	clock  *Clock
	delays detrand.Key
	msgSeq uint64
	// minDelay/maxDelay bound each hop's latency.
	minDelay, maxDelay time.Duration
	// dupPer10k and reorderPer10k are per-message odds (out of 10000)
	// that the fabric duplicates a request — the handler runs twice, the
	// client still sees one response, at-least-once delivery — or holds a
	// message back several full hop-spans so traffic sent later overtakes
	// it. Zero disables each.
	dupPer10k, reorderPer10k int

	nodes map[string]*cluster.Node    // live node by URL
	down  map[string]bool             // URL -> process is dead
	cut   map[[2]string]bool          // unordered pair -> link severed
	lag   map[[2]string]time.Duration // unordered pair -> extra per-hop delay
}

// NewNet creates a fabric on clock with per-hop delays in
// [minDelay, maxDelay], drawn deterministically from seed.
func NewNet(clock *Clock, seed int64, minDelay, maxDelay time.Duration) *Net {
	if maxDelay < minDelay {
		maxDelay = minDelay
	}
	return &Net{
		clock:    clock,
		delays:   detrand.NewKey(seed, "clustertest.net"),
		minDelay: minDelay,
		maxDelay: maxDelay,
		nodes:    make(map[string]*cluster.Node),
		down:     make(map[string]bool),
		cut:      make(map[[2]string]bool),
		lag:      make(map[[2]string]time.Duration),
	}
}

// SetNode binds (or rebinds, after a restart) the process at url.
func (n *Net) SetNode(url string, node *cluster.Node) {
	n.nodes[url] = node
	n.down[url] = false
}

// KillNode marks the process at url dead: everything addressed to or
// from it fails until SetNode binds a restarted node.
func (n *Net) KillNode(url string) { n.down[url] = true }

// Cut severs the link between a and b, both directions.
func (n *Net) Cut(a, b string) { n.cut[pairKey(a, b)] = true }

// Lag adds d of extra one-way delay to every hop between a and b —
// enough lag stretches an RPC past role changes, which is how the
// harness manufactures late responses from dead campaigns.
func (n *Net) Lag(a, b string, d time.Duration) { n.lag[pairKey(a, b)] = d }

// HealAll restores every severed link and clears all added lag.
func (n *Net) HealAll() {
	n.cut = make(map[[2]string]bool)
	n.lag = make(map[[2]string]time.Duration)
}

// EnableDeliveryChaos turns on seeded message duplication and
// reordering at the given per-10000 rates. Both misbehaviors are legal
// for a real network, so every protocol handler must tolerate them:
// duplication drills at-least-once request handling, reordering drills
// responses and requests arriving out of send order.
func (n *Net) EnableDeliveryChaos(dupPer10k, reorderPer10k int) {
	n.dupPer10k = dupPer10k
	n.reorderPer10k = reorderPer10k
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (n *Net) reachable(a, b string) bool {
	return !n.down[a] && !n.down[b] && !n.cut[pairKey(a, b)]
}

// hopPlan draws one hop's deterministic delivery plan: the base
// latency (inflated by several full hop-spans when the reorder roll
// hits, so later traffic overtakes this message), plus whether the
// fabric duplicates the delivery and after what gap.
func (n *Net) hopPlan() (d time.Duration, dup bool, dupGap time.Duration) {
	k := n.delays.Uint(n.msgSeq)
	n.msgSeq++
	span := int64(n.maxDelay-n.minDelay) + 1
	d = n.minDelay + time.Duration(k.Str("hop").Intn(span))
	if n.reorderPer10k > 0 && k.Str("reorder").Intn(10000) < int64(n.reorderPer10k) {
		d += time.Duration(1+k.Str("hold").Intn(3)) * n.maxDelay
	}
	if n.dupPer10k > 0 && k.Str("dup").Intn(10000) < int64(n.dupPer10k) {
		dup = true
		dupGap = n.minDelay + time.Duration(k.Str("dupgap").Intn(span))
	}
	return d, dup, dupGap
}

// TransportFor returns the cluster.Transport a node at src should use.
func (n *Net) TransportFor(src string) cluster.Transport {
	return &transport{net: n, src: src}
}

type transport struct {
	net *Net
	src string
}

// roundTrip schedules request delivery at dst and response delivery
// back at src. handle runs the RPC against the node bound at dst *at
// delivery time* (a restarted node answers for its predecessor, like a
// process reusing an address) and respond hands the answer back. A
// duplicated request runs handle a second time at a later instant —
// the client still gets exactly one done callback, but the handler
// must tolerate at-least-once delivery.
func (t *transport) roundTrip(dst string, handle func(*cluster.Node), respond, fail func()) {
	net := t.net
	linkLag := func() time.Duration { return net.lag[pairKey(t.src, dst)] }
	reqDelay, dup, dupGap := net.hopPlan()
	net.clock.AfterFunc(reqDelay+linkLag(), func() {
		if !net.reachable(t.src, dst) {
			d, _, _ := net.hopPlan()
			net.clock.AfterFunc(d+linkLag(), fail)
			return
		}
		handle(net.nodes[dst])
		respDelay, _, _ := net.hopPlan()
		net.clock.AfterFunc(respDelay+linkLag(), func() {
			if !net.reachable(t.src, dst) {
				fail()
				return
			}
			respond()
		})
	})
	if dup {
		// The fabric retransmit: re-handled on arrival, response (if the
		// first delivery produced one) already spoken for — discarded.
		net.clock.AfterFunc(reqDelay+linkLag()+dupGap, func() {
			if net.reachable(t.src, dst) {
				handle(net.nodes[dst])
			}
		})
	}
}

func (t *transport) RequestVote(peer string, req cluster.VoteRequest, done func(cluster.VoteResponse, error)) {
	var resp cluster.VoteResponse
	t.roundTrip(peer,
		func(n *cluster.Node) { resp = n.HandleVote(req) },
		func() { done(resp, nil) },
		func() { done(cluster.VoteResponse{}, errUnreachable) },
	)
}

func (t *transport) Heartbeat(peer string, req cluster.HeartbeatRequest, done func(cluster.HeartbeatResponse, error)) {
	var resp cluster.HeartbeatResponse
	t.roundTrip(peer,
		func(n *cluster.Node) { resp = n.HandleHeartbeat(req) },
		func() { done(resp, nil) },
		func() { done(cluster.HeartbeatResponse{}, errUnreachable) },
	)
}

func (t *transport) Pull(peer string, req cluster.PullRequest, done func(cluster.PullResponse, error)) {
	var resp cluster.PullResponse
	t.roundTrip(peer,
		func(n *cluster.Node) { resp = n.HandlePull(req) },
		func() { done(resp, nil) },
		func() { done(cluster.PullResponse{}, errUnreachable) },
	)
}

func (t *transport) FetchSnapshotChunk(peer string, req cluster.SnapshotChunkRequest, done func(cluster.SnapshotChunkResponse, error)) {
	var resp cluster.SnapshotChunkResponse
	t.roundTrip(peer,
		func(n *cluster.Node) { resp = n.HandleSnapshotChunk(req) },
		func() { done(resp, nil) },
		func() { done(cluster.SnapshotChunkResponse{}, errUnreachable) },
	)
}
