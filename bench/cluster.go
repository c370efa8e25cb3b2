package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/service"
)

const (
	clusterSize = 3
	// warmupWrites is how many acknowledged writes end the set-up.
	warmupWrites = 10
	// dueEvery is each client's write period in the fault phase.
	dueEvery = 250 * time.Millisecond
	// kills is how many times the fault phase kills the leader.
	kills = 8
	// settle is the pause after a restarted node has caught up and before
	// the next kill. A restarted voter refuses every vote for one election
	// timeout (1 s), so a kill inside that window measures two faults at
	// once; the pause keeps the kills independent.
	settle = 1200 * time.Millisecond
	// waitLimit bounds every wait for the cluster to get somewhere.
	waitLimit = 20 * time.Second
)

// stamped is one protocol event with the wall time it was reported at.
type stamped struct {
	at time.Time
	cluster.Event
}

// eventLog records what the nodes report through Config.OnEvent. The
// hook runs under the node's lock, so it only appends.
type eventLog struct {
	mu     sync.Mutex
	events []stamped
}

func (l *eventLog) observe(ev cluster.Event) {
	now := time.Now()
	l.mu.Lock()
	l.events = append(l.events, stamped{at: now, Event: ev})
	l.mu.Unlock()
}

func (l *eventLog) since(t time.Time) []stamped {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []stamped
	for _, ev := range l.events {
		if ev.at.After(t) {
			out = append(out, ev)
		}
	}
	return out
}

// count returns how many events of typ were reported after t.
func (l *eventLog) count(typ string, t time.Time) int {
	n := 0
	for _, ev := range l.since(t) {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// cluster3 is the replicated deployment: three nodes on loopback at the
// shipped default timers, sync on, P closed-loop writers.
type cluster3 struct {
	dir    string
	addrs  []string
	urls   []string
	srvs   []*server
	events eventLog

	clients   []*benchClient
	streams   [][]service.Post
	next      []int
	windowDur time.Duration

	mu    sync.Mutex
	acked []string

	// steadySince is when the set-up ended; no leader may change between
	// it and the start of the fault phase.
	steadySince time.Time
	faultStart  time.Time

	// Traced-window observations, for layers.
	rpcBefore, rpcAfter map[string]rpcCounts
	fsBefore, fsAfter   fsCounts
	windowWrites        int
	windowElapsed       time.Duration
	lag                 *lagSampler
}

func (c *cluster3) config(i int) cluster.Config {
	var peers []string
	for j, u := range c.urls {
		if j != i {
			peers = append(peers, u)
		}
	}
	return cluster.Config{
		NodeID:  fmt.Sprintf("n%d", i+1),
		SelfURL: c.urls[i],
		Peers:   peers,
		DataDir: filepath.Join(c.dir, fmt.Sprintf("n%d", i+1)),
		OnEvent: c.events.observe,
	}
}

func (c *cluster3) startNode(e *env, i int) error {
	cfg := c.config(i)
	cfg.Seed = e.seed
	srv, err := startServer(cfg.NodeID, c.addrs[i], cfg, newCountFS("wal", e.rec, nil), e.rec)
	if err != nil {
		return err
	}
	c.srvs[i] = srv
	return nil
}

// reserveAddrs picks n free loopback ports. Every node must know its
// peers' URLs before any of them starts.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

func (c *cluster3) setup(e *env) error {
	c.windowDur = time.Duration(e.seconds) * time.Second / windows
	if e.smoke {
		c.windowDur = 600 * time.Millisecond
	}
	dir, err := e.mkdir("cluster")
	if err != nil {
		return err
	}
	c.dir = dir
	if c.addrs, err = reserveAddrs(clusterSize); err != nil {
		return err
	}
	c.urls = make([]string, clusterSize)
	for i, a := range c.addrs {
		c.urls[i] = "http://" + a
	}
	c.srvs = make([]*server, clusterSize)
	for i := range c.srvs {
		if err := c.startNode(e, i); err != nil {
			return err
		}
	}
	if _, err := c.waitLeader(); err != nil {
		return err
	}
	if c.clients, err = c.newClients(e); err != nil {
		return err
	}
	c.streams = make([][]service.Post, e.p)
	c.next = make([]int, e.p)
	for w := range c.streams {
		// Far more posts than any window can write at the 200 ms a commit
		// takes today; the stream is extended on demand if a faster
		// cluster runs through it.
		c.streams[w] = genPosts(e.seed, fmt.Sprintf("c%d", w), 4096)
	}
	if res := c.writeLoop(e, func(w, done int) bool { return done < warmupWrites/e.p }); res.failed > 0 {
		return fmt.Errorf("%d of the warm-up writes failed", res.failed)
	}
	c.steadySince = time.Now()
	return nil
}

func (c *cluster3) newClients(e *env) ([]*benchClient, error) {
	clients := make([]*benchClient, e.p)
	for w := range clients {
		var err error
		if clients[w], err = newBenchClient(c.urls[0], c.urls[1:], e.rec); err != nil {
			return nil, err
		}
	}
	return clients, nil
}

// leader returns the index of the live node leading at the highest
// term, or -1.
func (c *cluster3) leader() int {
	best, bestTerm := -1, uint64(0)
	for i, s := range c.srvs {
		if s == nil || s.node.Role() != cluster.RoleLeader {
			continue
		}
		if t := s.node.Term(); best < 0 || t > bestTerm {
			best, bestTerm = i, t
		}
	}
	return best
}

// waitLeader waits until a node leads and has committed its own term's
// barrier, so the next write need not wait for the election's tail.
func (c *cluster3) waitLeader() (int, error) {
	deadline := time.Now().Add(waitLimit)
	for time.Now().Before(deadline) {
		if l := c.leader(); l >= 0 {
			n := c.srvs[l].node
			if idx := n.LastIndex(); idx > 0 && n.CommitIndex() >= idx {
				return l, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return -1, fmt.Errorf("no leader within %v", waitLimit)
}

// post hands writer w its next post.
func (c *cluster3) post(e *env, w int) service.Post {
	if c.next[w] == len(c.streams[w]) {
		more := genPosts(e.seed, fmt.Sprintf("c%d-%d", w, len(c.streams[w])), 4096)
		c.streams[w] = append(c.streams[w], more...)
	}
	p := c.streams[w][c.next[w]]
	c.next[w]++
	return p
}

// writeLoop runs the P closed-loop writers, each until more(w, done)
// says stop, and returns what they did together.
func (c *cluster3) writeLoop(e *env, more func(w, done int) bool) windowResult {
	var wr windowResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range c.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lat []time.Duration
			var ids []string
			failed := 0
			for done := 0; more(w, done); done++ {
				p := c.post(e, w)
				d, err := c.clients[w].call("write", func() error { return c.clients[w].Write(site, p) })
				if err != nil {
					failed++
					continue
				}
				lat = append(lat, d)
				ids = append(ids, p.ID)
			}
			mu.Lock()
			wr.lat = append(wr.lat, lat...)
			wr.ops += len(lat)
			wr.attempted += len(lat) + failed
			wr.failed += failed
			mu.Unlock()
			c.mu.Lock()
			c.acked = append(c.acked, ids...)
			c.mu.Unlock()
		}(w)
	}
	wg.Wait()
	// The window ends when its last write is acknowledged, not at the
	// nominal deadline: with a 200 ms commit the whole-op count in a
	// fixed duration is quantized to several per cent.
	wr.elapsed = time.Since(t0)
	return wr
}

func (c *cluster3) window(e *env) (windowResult, error) {
	if e.rec != nil {
		c.rpcBefore, c.fsBefore = c.rpcTotals(), c.fsTotals()
		c.lag = startLagSampler(c)
	}
	deadline := time.Now().Add(c.windowDur)
	wr := c.writeLoop(e, func(int, int) bool { return time.Now().Before(deadline) })
	if e.rec != nil {
		c.lag.stop()
		c.rpcAfter, c.fsAfter = c.rpcTotals(), c.fsTotals()
		c.windowWrites, c.windowElapsed = wr.ops, wr.elapsed
	}
	return wr, nil
}

func (c *cluster3) rpcTotals() map[string]rpcCounts {
	total := make(map[string]rpcCounts)
	for _, s := range c.srvs {
		for path, n := range s.rpcSnapshot() {
			t := total[path]
			t.Requests += n.Requests
			t.Bytes += n.Bytes
			total[path] = t
		}
	}
	return total
}

// fsTotals is the leader's op log as the file shim saw it.
func (c *cluster3) fsTotals() fsCounts {
	if l := c.leader(); l >= 0 {
		return c.srvs[l].fs.snapshot()
	}
	return fsCounts{}
}

// converge waits until every node holds the same log head.
func (c *cluster3) converge() error {
	deadline := time.Now().Add(waitLimit)
	for time.Now().Before(deadline) {
		head := c.srvs[0].node.LastIndex()
		same := c.leader() >= 0
		for _, s := range c.srvs {
			if s.node.LastIndex() != head || s.node.CommitIndex() != head {
				same = false
			}
		}
		if same {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("nodes did not converge within %v", waitLimit)
}

// check holds the cluster to its contract: every acknowledged write is
// on all three nodes, the logs agree wherever they overlap, and nobody
// changed leader outside the fault phase.
func (c *cluster3) check(e *env) error {
	if err := c.converge(); err != nil {
		return err
	}
	var problems []string
	c.mu.Lock()
	acked := append([]string(nil), c.acked...)
	c.mu.Unlock()
	for _, s := range c.srvs {
		posts, err := s.node.Read(site, "bench")
		if err != nil {
			return err
		}
		have := make(map[string]bool, len(posts))
		for _, p := range posts {
			have[p.ID] = true
		}
		missing := 0
		for _, id := range acked {
			if !have[id] {
				missing++
			}
		}
		if missing > 0 {
			problems = append(problems, fmt.Sprintf("%s lacks %d of %d acknowledged writes", s.id, missing, len(acked)))
		}
	}
	type entry struct {
		term uint64
		id   string
	}
	seen := make(map[uint64]entry)
	for _, s := range c.srvs {
		for _, op := range s.node.TailOps() {
			got := entry{op.Term, op.Kind + ":" + op.ID}
			if prev, ok := seen[op.Index]; ok && prev != got {
				problems = append(problems, fmt.Sprintf("logs disagree at index %d: %v on %s, %v elsewhere", op.Index, got, s.id, prev))
				break
			}
			seen[op.Index] = got
		}
	}
	steadyEnd := c.faultStart
	if steadyEnd.IsZero() {
		steadyEnd = time.Now()
	}
	changes := 0
	for _, ev := range c.events.since(c.steadySince) {
		if ev.Type == cluster.EventBecomeLeader && ev.at.Before(steadyEnd) {
			changes++
		}
	}
	if changes > 0 {
		problems = append(problems, fmt.Sprintf("%d leader changes outside the fault phase", changes))
	}
	if len(problems) > 0 {
		return errors.New(joinProblems(problems))
	}
	return nil
}

func (c *cluster3) teardown() {
	for _, cl := range c.clients {
		if cl != nil {
			cl.close()
		}
	}
	for _, s := range c.srvs {
		if s != nil {
			s.kill()
		}
	}
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
	}
}

// lagSampler polls every node's log head once a millisecond while a
// traced window runs, so follower lag can be read from outside: for
// each index, when the leader first held it against when the last
// follower did.
type lagSampler struct {
	c       *cluster3
	quit    chan struct{}
	done    chan struct{}
	started time.Time
	// reached[i][idx] is when node i was first seen at or past idx.
	reached []map[uint64]time.Time
}

func startLagSampler(c *cluster3) *lagSampler {
	s := &lagSampler{c: c, quit: make(chan struct{}), done: make(chan struct{}), started: time.Now()}
	s.reached = make([]map[uint64]time.Time, len(c.srvs))
	last := make([]uint64, len(c.srvs))
	for i, srv := range c.srvs {
		s.reached[i] = make(map[uint64]time.Time)
		last[i] = srv.node.LastIndex()
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case now := <-tick.C:
				for i, srv := range c.srvs {
					head := srv.node.LastIndex()
					for idx := last[i] + 1; idx <= head; idx++ {
						s.reached[i][idx] = now
					}
					last[i] = head
				}
			}
		}
	}()
	return s
}

func (s *lagSampler) stop() {
	close(s.quit)
	<-s.done
}

// lags returns, per index appended while sampling, the time from the
// leader holding the entry to the last follower holding it, at the
// sampler's one-millisecond resolution.
func (s *lagSampler) lags() []time.Duration {
	leader := s.c.leader()
	if leader < 0 {
		return nil
	}
	var out []time.Duration
	for idx, led := range s.reached[leader] {
		var last time.Time
		all := true
		for i := range s.reached {
			if i == leader {
				continue
			}
			at, ok := s.reached[i][idx]
			if !ok {
				all = false
				break
			}
			if at.After(last) {
				last = at
			}
		}
		if all {
			out = append(out, max(0, last.Sub(led)))
		}
	}
	return out
}

// readPhase resets the cluster through its leader, preloads one round
// of posts and runs P closed-loop lease readers for d. Every read must
// return at least the preloaded posts: they were all acknowledged
// before it began.
func (c *cluster3) readPhase(e *env, d time.Duration) (lat []time.Duration, err error) {
	l, err := c.waitLeader()
	if err != nil {
		return nil, err
	}
	admin, err := newBenchClient(c.urls[l], nil, e.rec)
	if err != nil {
		return nil, err
	}
	defer admin.close()
	if _, err := admin.call("reset", admin.Reset); err != nil {
		return nil, fmt.Errorf("reset before the read phase: %w", err)
	}
	c.mu.Lock()
	c.acked = nil // the reset cleared them, by design
	c.mu.Unlock()
	preload := genPosts(e.seed, "preload", roundPosts)
	for _, p := range preload {
		if _, err := admin.call("write", func() error { return admin.Write(site, p) }); err != nil {
			return nil, fmt.Errorf("preloading %s: %w", p.ID, err)
		}
		c.mu.Lock()
		c.acked = append(c.acked, p.ID)
		c.mu.Unlock()
	}
	readers, err := c.newClients(e)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	deadline := time.Now().Add(d)
	for _, r := range readers {
		r.SetReadMode(cluster.ReadLease)
		wg.Add(1)
		go func(r *benchClient) {
			defer wg.Done()
			defer r.close()
			var mine []time.Duration
			var rerr error
			for time.Now().Before(deadline) && rerr == nil {
				var got []service.Post
				var took time.Duration
				took, rerr = r.call("read", func() (err error) {
					got, err = r.Read(site, "bench")
					return err
				})
				if rerr == nil {
					rerr = samePosts(got[:min(len(got), len(preload))], preload)
				}
				mine = append(mine, took)
			}
			mu.Lock()
			lat = append(lat, mine...)
			if rerr != nil && firstErr == nil {
				firstErr = fmt.Errorf("stale or failed lease read: %w", rerr)
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	return lat, firstErr
}

// faultStats is what the fault phase measured, one sample per kill
// unless noted.
type faultStats struct {
	outage, detect, elect, firstAck []time.Duration
	recoverOpen, catchup            []time.Duration
	// lateness has one sample per due write: how late the generator sent it.
	lateness            []time.Duration
	elections, noWinner int
	redirects           int
	attempted, failed   int
}

// faultPhase keeps a write due every dueEvery on each of P clients —
// sent on schedule whether or not anyone leads, so the writes due during
// an outage are counted — while the current leader is killed again and
// again; every killed node is restarted from its data directory and
// waited for before the next kill.
func (c *cluster3) faultPhase(e *env, n int) (*faultStats, error) {
	st := &faultStats{}
	c.faultStart = time.Now()
	clients, err := c.newClients(e)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var acks []time.Time // when each write of the phase was acknowledged
	quit := make(chan struct{})
	var wg sync.WaitGroup
	t0 := time.Now()
	for w, cl := range clients {
		wg.Add(1)
		go func(w int, cl *benchClient) {
			defer wg.Done()
			defer cl.close()
			for k := 0; ; k++ {
				due := t0.Add(time.Duration(k) * dueEvery)
				select {
				case <-quit:
					return
				case <-time.After(time.Until(due)):
				}
				late := max(0, time.Since(due))
				p := c.post(e, w)
				_, err := cl.call("write", func() error { return cl.Write(site, p) })
				now := time.Now()
				mu.Lock()
				st.attempted++
				st.lateness = append(st.lateness, late)
				if err != nil {
					st.failed++
				} else {
					acks = append(acks, now)
				}
				mu.Unlock()
				if err == nil {
					c.mu.Lock()
					c.acked = append(c.acked, p.ID)
					c.mu.Unlock()
				}
			}
		}(w, cl)
	}
	stopLoad := func() {
		close(quit)
		wg.Wait()
		for _, cl := range clients {
			st.redirects += cl.RedirectStats().RedirectedWrites
		}
	}

	// The kill instants are drawn from the seed, so they do not lock onto
	// the write schedule's phase.
	rng := rand.New(rand.NewSource(e.seed ^ 0x6b696c6c))
	firstAckAfter := func(t time.Time) (time.Time, bool) {
		mu.Lock()
		defer mu.Unlock()
		for _, at := range acks {
			if at.After(t) {
				return at, true
			}
		}
		return time.Time{}, false
	}
	for i := 0; i < n; i++ {
		l, err := c.waitLeader()
		if err != nil {
			stopLoad()
			return nil, err
		}
		time.Sleep(time.Duration(rng.Int63n(int64(dueEvery))))
		victim := c.srvs[l]
		killed := time.Now()
		victim.kill()

		// The outage ends with the first write acknowledged after a new
		// leader's election: an acknowledgement the dying leader had already
		// sent can still reach its client a moment after the kill.
		var candidate, elected, acked time.Time
		for deadline := killed.Add(waitLimit); acked.IsZero(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				stopLoad()
				return nil, fmt.Errorf("kill %d: no write acknowledged by a new leader within %v", i+1, waitLimit)
			}
			for _, ev := range c.events.since(killed) {
				if ev.Type == cluster.EventBecomeLeader && ev.Node != victim.id {
					elected = ev.at
					break
				}
			}
			if !elected.IsZero() {
				acked, _ = firstAckAfter(elected)
			}
		}
		terms := make(map[uint64]bool)
		won := make(map[uint64]bool)
		for _, ev := range c.events.since(killed) {
			if ev.at.After(acked) {
				break
			}
			switch ev.Type {
			case cluster.EventBecomeCandidate:
				st.elections++
				terms[ev.Term] = true
				if candidate.IsZero() {
					candidate = ev.at
				}
			case cluster.EventBecomeLeader:
				won[ev.Term] = true
			}
		}
		for t := range terms {
			if !won[t] {
				st.noWinner++
			}
		}
		st.outage = append(st.outage, acked.Sub(killed))
		st.detect = append(st.detect, candidate.Sub(killed))
		st.elect = append(st.elect, elected.Sub(candidate))
		st.firstAck = append(st.firstAck, acked.Sub(elected))

		opened := time.Now()
		if err := c.startNode(e, l); err != nil {
			stopLoad()
			return nil, fmt.Errorf("restarting %s: %w", victim.id, err)
		}
		st.recoverOpen = append(st.recoverOpen, c.srvs[l].openTook)
		for {
			cur := c.leader()
			if cur >= 0 && cur != l && c.srvs[l].node.LastIndex() >= c.srvs[cur].node.LastIndex() {
				break
			}
			if time.Since(opened) > waitLimit {
				stopLoad()
				return nil, fmt.Errorf("restarted %s did not catch up within %v", victim.id, waitLimit)
			}
			time.Sleep(time.Millisecond)
		}
		st.catchup = append(st.catchup, time.Since(opened))
		if i < n-1 {
			time.Sleep(settle)
		}
	}
	stopLoad()
	return st, nil
}

// layers reports what the traced window showed of replication, then
// runs the two traced-only phases — lease reads, and the leader kills —
// and reports those.
func (c *cluster3) layers(e *env, m *metrics) error {
	if w := float64(c.windowWrites); w > 0 {
		delta := func(path string) rpcCounts {
			a, b := c.rpcAfter[path], c.rpcBefore[path]
			return rpcCounts{Requests: a.Requests - b.Requests, Bytes: a.Bytes - b.Bytes}
		}
		var bytes int64
		for _, rpc := range []string{"pull", "heartbeat", "vote", "snapshot"} {
			bytes += delta("/cluster/" + rpc).Bytes
		}
		m.set("cluster.pull_rpcs_per_write", float64(delta("/cluster/pull").Requests)/w, "count", c.windowWrites)
		m.set("cluster.heartbeat_rpcs_per_s", float64(delta("/cluster/heartbeat").Requests)/c.windowElapsed.Seconds(), "1/s", int(delta("/cluster/heartbeat").Requests))
		m.set("cluster.rpc_bytes_per_write", float64(bytes)/w, "B", c.windowWrites)
		fs := c.fsAfter.sub(c.fsBefore)
		m.set("wal.fsyncs_per_write", float64(fs.Syncs)/w, "count", c.windowWrites)
		m.set("wal.bytes_per_write", float64(fs.Bytes)/w, "B", c.windowWrites)
		lags := c.lag.lags()
		m.set("cluster.follower_lag_ms_p50", p50(lags, ms), "ms", len(lags))
		sums := summarize(e.rec.snapshot())
		for rpc, name := range map[string]string{"pull": "cluster.pull_handle_us_p50", "heartbeat": "cluster.heartbeat_handle_us_p50"} {
			if sum := sums["cluster.handle."+rpc]; sum != nil {
				m.set(name, p50(sum.durs, us), "us", sum.Count)
			}
		}
	}

	lat, err := c.readPhase(e, time.Duration(e.count(1500, 200))*time.Millisecond)
	if err != nil {
		return err
	}
	m.set("client.read_ms_p50", p50(lat, ms), "ms", len(lat))
	steady := c.events.count(cluster.EventBecomeLeader, c.steadySince)
	m.set("cluster.steady_leader_changes", float64(steady), "count", 1)

	n := kills
	if e.smoke {
		n = 1
	}
	st, err := c.faultPhase(e, n)
	if err != nil {
		return err
	}
	m.set("client.outage_ms_p50", p50(st.outage, ms), "ms", len(st.outage))
	m.set("cluster.detect_ms_p50", p50(st.detect, ms), "ms", len(st.detect))
	m.set("cluster.elect_ms_p50", p50(st.elect, ms), "ms", len(st.elect))
	m.set("cluster.first_ack_ms_p50", p50(st.firstAck, ms), "ms", len(st.firstAck))
	m.set("cluster.elections_per_kill", float64(st.elections)/float64(n), "count", n)
	m.set("cluster.elections_no_winner", float64(st.noWinner), "count", n)
	m.set("cluster.recover_open_ms", p50(st.recoverOpen, ms), "ms", len(st.recoverOpen))
	m.set("cluster.restart_catchup_ms_p50", p50(st.catchup, ms), "ms", len(st.catchup))
	m.set("httpapi.redirects_per_kill", float64(st.redirects)/float64(n), "count", n)
	m.set("bench.gen_lateness_ms_p50", p50(st.lateness, ms), "ms", len(st.lateness))
	m.set("client.fault_writes_attempted", float64(st.attempted), "count", 1)
	m.set("client.fault_writes_failed", float64(st.failed), "count", 1)
	return nil
}
