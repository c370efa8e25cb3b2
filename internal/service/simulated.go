package service

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/simnet"
	"conprobe/internal/store"
	"conprobe/internal/vtime"
)

// Profile declares everything needed to instantiate a simulated service:
// its replicated-store configuration, how agent locations route to data
// centers, and read-time behaviors.
type Profile struct {
	// Name identifies the profile ("blogger", "googleplus", ...).
	Name string
	// Store configures the replication back-end.
	Store store.Config
	// Routing maps each client location to the data center serving it.
	Routing map[simnet.Site]simnet.Site
	// Selection, when non-nil, applies interest-based read selection.
	Selection *Selection
	// ReadFlapProb is the probability that a read is served by a random
	// replica other than the client's home data center (load-balancer
	// flaps; a source of read-your-writes and monotonic-reads anomalies
	// on weakly consistent services).
	ReadFlapProb float64
	// APIDelay is the mean server-side processing time per request,
	// sampled uniformly in [0.5*APIDelay, 1.5*APIDelay). Social-network
	// APIs of the paper's era took hundreds of milliseconds per call,
	// which lets fast replication finish before the caller's next read.
	APIDelay time.Duration
}

// TestScoped is implemented by services (and service wrappers) whose
// deterministic draws depend on cumulative per-run counters. BeginTest
// rebases that state onto the test ID, making every draw a pure
// function of (seed, test ID, per-test operation history) instead of
// campaign-lifetime history. That is what lets a resumed campaign —
// which never lived through the earlier tests — reproduce the
// remaining tests byte-for-byte. Implementations must be idempotent
// per id: wrappers fan BeginTest down to a shared base service, so the
// base may see the same id several times per test. Services without
// cross-test state simply don't implement the interface.
type TestScoped interface {
	BeginTest(id int)
}

// nonceStripes is the lock stripe count for per-reader read counters;
// concurrent readers almost always hash to different stripes.
const nonceStripes = 16

// nonceStripe is one lock stripe of the per-reader read counters.
type nonceStripe struct {
	mu     sync.Mutex
	nonces map[string]uint64
}

// Simulated is a Service built from a Profile over a simulated network.
type Simulated struct {
	name    string
	clock   vtime.Clock
	net     *simnet.Network
	cluster *store.Cluster
	profile Profile
	seed    int64

	// round is the current test ID (0 outside campaigns, e.g. the live
	// consvc path, which never calls BeginTest and so behaves exactly as
	// before). It scopes the read nonces below.
	round atomic.Int64

	stripes [nonceStripes]nonceStripe
	posts   postBlock
	// others lists, per home data center, the replicas a flapped read
	// may be served by, in Store.Sites order.
	others map[simnet.Site][]simnet.Site
}

var _ Service = (*Simulated)(nil)

// NewSimulated instantiates the profile over the given clock and network.
func NewSimulated(clock vtime.Clock, net *simnet.Network, p Profile, seed int64) (*Simulated, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("service: profile has no name")
	}
	if len(p.Routing) == 0 {
		return nil, fmt.Errorf("service %s: empty routing table", p.Name)
	}
	replicas := make(map[simnet.Site]bool, len(p.Store.Sites))
	for _, s := range p.Store.Sites {
		replicas[s] = true
	}
	for from, dc := range p.Routing {
		if !replicas[dc] {
			return nil, fmt.Errorf("service %s: %s routes to %s, which hosts no replica", p.Name, from, dc)
		}
	}
	cluster, err := store.NewCluster(clock, net, p.Store, seed)
	if err != nil {
		return nil, fmt.Errorf("service %s: %w", p.Name, err)
	}
	s := &Simulated{
		name:    p.Name,
		clock:   clock,
		net:     net,
		cluster: cluster,
		profile: p,
		seed:    seed,
		others:  make(map[simnet.Site][]simnet.Site, len(p.Store.Sites)),
	}
	for _, home := range p.Store.Sites {
		s.others[home] = slices.DeleteFunc(slices.Clone(p.Store.Sites), func(dc simnet.Site) bool { return dc == home })
	}
	for i := range s.stripes {
		s.stripes[i].nonces = make(map[string]uint64)
	}
	return s, nil
}

// Name returns the profile name.
func (s *Simulated) Name() string { return s.name }

// Cluster exposes the underlying replicated store (used by ablation
// benchmarks and white-box tests).
func (s *Simulated) Cluster() *store.Cluster { return s.cluster }

// route returns the home data center for a client location.
func (s *Simulated) route(from simnet.Site) (simnet.Site, error) {
	dc, ok := s.profile.Routing[from]
	if !ok {
		return "", fmt.Errorf("service %s: no route for client at %s", s.name, from)
	}
	return dc, nil
}

// travel sleeps one keyed one-way delay between a and b.
func (s *Simulated) travel(a, b simnet.Site, k detrand.Key) error {
	d, err := s.net.OneWayU(a, b, k.Float64())
	if err != nil {
		return err
	}
	s.clock.Sleep(d)
	return nil
}

// inbound covers the client→DC leg plus server-side processing as ONE
// scheduler sleep. Both delays derive from independent keys ("go",
// "api"), so drawing them up front and sleeping their sum leaves every
// delay value and the instant the store operation executes unchanged —
// it only halves the inbound path's scheduler round-trips.
func (s *Simulated) inbound(from, dc simnet.Site, k detrand.Key) error {
	d, err := s.net.OneWayU(from, dc, k.Str("go").Float64())
	if err != nil {
		return err
	}
	d += s.processDelay(k.Str("api"))
	if d > 0 {
		s.clock.Sleep(d)
	}
	return nil
}

// Write publishes p, paying the round trip to the client's data center.
func (s *Simulated) Write(from simnet.Site, p Post) error {
	dc, err := s.route(from)
	if err != nil {
		return err
	}
	if !s.net.Reachable(from, dc) {
		return fmt.Errorf("service %s: %s cannot reach %s", s.name, from, dc)
	}
	// All of this write's random delays key off its unique post ID.
	k := detrand.NewKey(s.seed, "write").Str(p.ID)
	if err := s.inbound(from, dc, k); err != nil {
		return err
	}
	entry := store.Entry{ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn}
	if _, err := s.cluster.WriteEntry(dc, entry); err != nil {
		return err
	}
	return s.travel(dc, from, k.Str("back"))
}

// processDelay returns the keyed server-side handling time.
func (s *Simulated) processDelay(k detrand.Key) time.Duration {
	d := s.profile.APIDelay
	if d <= 0 {
		return 0
	}
	f := 0.5 + k.Float64()
	return time.Duration(float64(d) * f)
}

// Read lists the posts reader currently observes from the given location.
func (s *Simulated) Read(from simnet.Site, reader string) ([]Post, error) {
	dc, err := s.route(from)
	if err != nil {
		return nil, err
	}
	// All of this read's random choices key off (reader, read number).
	nonce := s.nextNonce(reader)
	k := detrand.NewKey(s.seed, "read").Str(reader).Uint(nonce)
	dc = s.maybeFlap(dc, k.Str("flap"))
	if !s.net.Reachable(from, dc) {
		return nil, fmt.Errorf("service %s: %s cannot reach %s", s.name, from, dc)
	}
	if err := s.inbound(from, dc, k); err != nil {
		return nil, err
	}
	posts, err := s.cluster.Read(dc)
	if err != nil {
		return nil, err
	}
	posts = s.profile.Selection.apply(posts, &s.posts, s.clock, s.seed, reader, nonce)
	if err := s.travel(dc, from, k.Str("back")); err != nil {
		return nil, err
	}
	return posts, nil
}

// maybeFlap occasionally substitutes a different replica for the home
// DC; the decision and the choice both derive from the read's key.
func (s *Simulated) maybeFlap(home simnet.Site, k detrand.Key) simnet.Site {
	p := s.profile.ReadFlapProb
	if p <= 0 {
		return home
	}
	if k.Float64() >= p {
		return home
	}
	others := s.others[home]
	if len(others) == 0 {
		return home
	}
	return others[k.Str("choice").Intn(int64(len(others)))]
}

// nextNonce numbers reads per (round, reader), keeping selection
// deterministic for a fixed seed regardless of goroutine interleaving
// between concurrent readers. The round (test ID) occupies the high
// bits so a test's read keys depend only on that test's own reads —
// never on how many reads earlier tests performed — which is what
// makes a resumed campaign replay identically. Counters are
// lock-striped by reader so parallel readers do not serialize on one
// mutex.
func (s *Simulated) nextNonce(reader string) uint64 {
	h := fnv.New32a()
	h.Write([]byte(reader))
	st := &s.stripes[h.Sum32()%nonceStripes]
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nonces[reader]++
	return uint64(s.round.Load())<<20 | st.nonces[reader]
}

// epochStride spaces the store epochs claimed by successive tests.
// Each test performs a handful of ordinary Resets (the runner resets
// the service and every wrapped client, all reaching the same
// cluster), each advancing the epoch by one; 64 leaves ample headroom
// while keeping test N's epoch a pure function of N.
const epochStride = 64

// BeginTest scopes the service's deterministic state to test id: read
// nonces restart per reader and the store jumps to the test's own
// epoch. Idempotent per id — wrappers may forward it more than once.
func (s *Simulated) BeginTest(id int) {
	if s.round.Load() == int64(id) {
		return
	}
	s.round.Store(int64(id))
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		clear(st.nonces)
		st.mu.Unlock()
	}
	s.cluster.BeginEpoch(uint64(id) * epochStride)
}

// Reset clears the replicated store between tests.
func (s *Simulated) Reset() error {
	s.cluster.Reset()
	return nil
}
