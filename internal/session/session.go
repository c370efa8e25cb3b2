// Package session implements client-side session-guarantee enforcement,
// the mitigation the paper sketches in its discussion (Section V): "most
// of the session guarantees can be easily enforced at the application
// level by simply identifying requests with a session id and a sequence
// number within a session, and using a combination of caching and
// replaying previous values that were read and written, and delaying or
// omitting the delivery of messages."
//
// Client wraps a service.Service for one agent and masks anomalies in
// the read path:
//
//   - Read Your Writes: acknowledged own writes missing from a read are
//     replayed from the session's write cache.
//
//   - Monotonic Reads: writes observed by an earlier read that have
//     disappeared are replayed from the session's read cache.
//
//   - Monotonic Writes: the session's own writes are re-ordered into
//     issue order wherever they appear.
//
//   - Writes Follows Reads: as the paper notes, this one "is a bit more
//     complicated to enforce" — a reader cannot know the causal triggers
//     of other clients' writes from the black-box API alone. It becomes
//     enforceable when writers cooperate: a writing session declares its
//     causal dependency in Post.DependsOn, and reading sessions delay
//     the delivery of a post until its declared cause is visible —
//     exactly the paper's "delaying or omitting the delivery of
//     messages".
package session

import (
	"slices"
	"sort"
	"sync"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// Guarantees is a bit set of session guarantees to enforce.
type Guarantees uint8

// The maskable guarantees.
const (
	ReadYourWrites Guarantees = 1 << iota
	MonotonicReads
	MonotonicWrites
	// WritesFollowsReads requires cooperating writers that declare
	// causal dependencies in Post.DependsOn.
	WritesFollowsReads

	// All enables every maskable guarantee.
	All = ReadYourWrites | MonotonicReads | MonotonicWrites | WritesFollowsReads
)

// Has reports whether g includes want.
func (g Guarantees) Has(want Guarantees) bool { return g&want == want }

// Client is a per-agent session layer over a Service.
type Client struct {
	svc      service.Service
	label    string
	g        Guarantees
	maxCache int

	mu        sync.Mutex
	ownWrites []service.Post          // acknowledged writes, issue order
	ownSeq    map[string]int          // write ID -> issue index
	seen      map[string]service.Post // observed posts (bounded)
	seenOrder []string                // first-observation order
}

var _ service.Service = (*Client)(nil)

// Option configures a Client.
type Option func(*Client)

// WithCacheLimit bounds the read cache to n posts, evicting the oldest
// observations first. Long-lived sessions (continuous monitoring) need a
// bound; evicted posts can no longer be replayed for monotonic reads.
// Zero (the default) keeps everything, which is right for the paper's
// bounded per-test sessions.
func WithCacheLimit(n int) Option {
	return func(c *Client) { c.maxCache = n }
}

// Wrap builds a session Client enforcing g for the agent with the given
// author label.
func Wrap(svc service.Service, label string, g Guarantees, opts ...Option) *Client {
	c := &Client{
		svc:    svc,
		label:  label,
		g:      g,
		ownSeq: make(map[string]int),
		seen:   make(map[string]service.Post),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name returns the wrapped service's name.
func (c *Client) Name() string { return c.svc.Name() }

// Write forwards to the service and caches the acknowledged write.
func (c *Client) Write(from simnet.Site, p service.Post) error {
	if err := c.svc.Write(from, p); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ownSeq[p.ID] = len(c.ownWrites)
	c.ownWrites = append(c.ownWrites, p)
	return nil
}

// Read forwards to the service and masks the enabled anomalies in the
// returned sequence.
func (c *Client) Read(from simnet.Site, reader string) ([]service.Post, error) {
	posts, err := c.svc.Read(from, reader)
	if err != nil {
		return nil, err
	}
	posts = slices.Clone(posts) // masking filters and reorders in place
	c.mu.Lock()
	defer c.mu.Unlock()

	// Writes Follows Reads: delay delivery of posts whose declared
	// causal dependency is not yet visible to this session.
	if c.g.Has(WritesFollowsReads) {
		posts = c.delayUncausedLocked(posts)
	}

	present := make(map[string]bool, len(posts))
	for _, p := range posts {
		present[p.ID] = true
	}

	// Monotonic Reads: replay previously observed posts that vanished.
	if c.g.Has(MonotonicReads) {
		for _, id := range c.seenOrder {
			if !present[id] {
				posts = append(posts, c.seen[id])
				present[id] = true
			}
		}
	}

	// Read Your Writes: replay acknowledged own writes that are missing.
	if c.g.Has(ReadYourWrites) {
		for _, w := range c.ownWrites {
			if !present[w.ID] {
				posts = append(posts, w)
				present[w.ID] = true
			}
		}
	}

	// Monotonic Writes: within the positions occupied by this session's
	// writes, restore issue order.
	if c.g.Has(MonotonicWrites) {
		c.reorderOwnLocked(posts)
	}

	// Update the read cache, evicting oldest observations past the cap.
	for _, p := range posts {
		if _, ok := c.seen[p.ID]; !ok {
			c.seen[p.ID] = p
			c.seenOrder = append(c.seenOrder, p.ID)
		}
	}
	if c.maxCache > 0 {
		for len(c.seenOrder) > c.maxCache {
			delete(c.seen, c.seenOrder[0])
			c.seenOrder = c.seenOrder[1:]
		}
	}
	return posts, nil
}

// delayUncausedLocked removes posts whose DependsOn names a post that is
// neither in the result, nor previously observed, nor written by this
// session — iterating to a fixpoint so dependency chains are delayed
// together. Caller holds mu.
func (c *Client) delayUncausedLocked(posts []service.Post) []service.Post {
	for {
		visible := make(map[string]bool, len(posts))
		for _, p := range posts {
			visible[p.ID] = true
		}
		kept := posts[:0]
		removed := false
		for _, p := range posts {
			dep := p.DependsOn
			ok := dep == "" || visible[dep]
			if !ok {
				if _, seen := c.seen[dep]; seen {
					ok = true
				}
			}
			if !ok {
				if _, own := c.ownSeq[dep]; own {
					ok = true
				}
			}
			if ok {
				kept = append(kept, p)
			} else {
				removed = true
			}
		}
		posts = kept
		if !removed {
			return posts
		}
	}
}

// reorderOwnLocked sorts this session's own writes into issue order,
// keeping them at the slots they occupied. Caller holds mu.
func (c *Client) reorderOwnLocked(posts []service.Post) {
	var slots []int
	for i, p := range posts {
		if _, ok := c.ownSeq[p.ID]; ok {
			slots = append(slots, i)
		}
	}
	if len(slots) < 2 {
		return
	}
	own := make([]service.Post, len(slots))
	for i, s := range slots {
		own[i] = posts[s]
	}
	sort.SliceStable(own, func(i, j int) bool {
		return c.ownSeq[own[i].ID] < c.ownSeq[own[j].ID]
	})
	for i, s := range slots {
		posts[s] = own[i]
	}
}

// BeginTest forwards the test boundary to the wrapped service so its
// deterministic per-test state (fault draws, backoff jitter, read
// nonces) rebases onto the test ID. The session caches themselves are
// cleared by Reset, which the campaign runner calls right after.
func (c *Client) BeginTest(id int) {
	if ts, ok := c.svc.(service.TestScoped); ok {
		ts.BeginTest(id)
	}
}

// Reset clears the session caches and resets the underlying service.
// The local caches are cleared even when the underlying reset fails, so
// a retried reset starts from a clean session.
func (c *Client) Reset() error {
	err := c.svc.Reset()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ownWrites = nil
	c.ownSeq = make(map[string]int)
	c.seen = make(map[string]service.Post)
	c.seenOrder = nil
	return err
}
