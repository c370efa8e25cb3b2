package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"conprobe/internal/clocksync"
	"conprobe/internal/cluster"
	"conprobe/internal/jsonappend"
	"conprobe/internal/obs"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// Client implements service.Service against an httpapi server, so the
// probing stack can measure a service across a real network.
//
// Against a replicated cluster, writes automatically follow the
// leader: a 421 refusal is retried once against the X-Cluster-Leader
// hint, and when the contacted node is simply gone (the leader was
// killed), the peer set given to SetPeers is polled for whoever won
// the election.
//
// Reads default to the same pinned-to-base behavior — follower reads
// are the externally observable consistency surface the probe exists
// to measure. SetReadMode asks GET /posts for a lease or quorum read
// instead, and those reads follow the leader exactly like writes do:
// latching onto a deposed leader and reading its stale replica forever
// is the failure mode the failover path exists to prevent.
type Client struct {
	base    string
	name    string
	hc      *http.Client
	maxRead int // MaxReadBodyBytes

	mu  sync.RWMutex
	ctx context.Context // bound campaign context; nil means Background

	// peers are alternate cluster node URLs writes may fail over to;
	// writeTarget is the currently believed leader ("" = base).
	peers       []string
	writeTarget string
	redirects   RedirectStats

	// readMode routes reads: local (default) pins GET /posts to base;
	// lease/quorum ask the latched leader for GET /posts?mode=.
	readMode  cluster.ReadMode
	readStats ReadStats

	targets map[targetKey]*http.Request // target's

	metrics clientMetrics
}

type targetKey struct {
	method, base, path string
	site               simnet.Site
}

// RedirectStats counts write failovers: RedirectedWrites is how many
// writes the first-contact node refused (421) or could not take
// (transport error with peers configured); RedirectRetriesOK is how
// many of those retries then succeeded on the discovered leader.
type RedirectStats struct {
	RedirectedWrites  int
	RedirectRetriesOK int
}

// ReadStats counts reads by the mode that actually vouched for them
// (the server's X-Read-Mode answer: a stale lease silently upgrades to
// a quorum round) plus read failovers. Degraded records that a lease or
// quorum read was answered local — a standalone server cannot prove
// freshness.
type ReadStats struct {
	Local, Lease, Quorum int
	RedirectedReads      int
	RedirectRetriesOK    int
	Degraded             bool
}

// opMetrics counts one operation kind's requests and errors.
type opMetrics struct {
	reqs, errs *obs.Counter
}

func (m opMetrics) done(err error) {
	m.reqs.Inc()
	if err != nil {
		m.errs.Inc()
	}
}

// clientMetrics holds per-operation request/error counters, labeled by
// op. Handles are always non-nil (NewClient binds them to a nil scope).
type clientMetrics struct {
	write, read, reset, timeProbe opMetrics
}

func newClientMetrics(sc *obs.Scope) clientMetrics {
	op := func(name string) opMetrics {
		osc := sc.With("op", name)
		return opMetrics{
			reqs: osc.Counter("requests_total", "HTTP requests issued, by operation."),
			errs: osc.Counter("errors_total", "HTTP requests that failed, by operation."),
		}
	}
	return clientMetrics{
		write:     op("write"),
		read:      op("read"),
		reset:     op("reset"),
		timeProbe: op("time"),
	}
}

// Instrument registers the client's request/error counters under sc.
// Call before the first request; a nil scope (the default) leaves the
// client on live unregistered metrics.
func (c *Client) Instrument(sc *obs.Scope) {
	c.mu.Lock()
	c.metrics = newClientMetrics(sc)
	c.mu.Unlock()
}

var _ service.Service = (*Client)(nil)

// NewClient targets the API at baseURL (e.g. "http://host:8080"). A nil
// httpClient uses a default with a 30s timeout.
func NewClient(baseURL, name string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("httpapi: parse base url: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("httpapi: base url %q needs scheme and host", baseURL)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	if name == "" {
		name = "remote"
	}
	return &Client{base: u.String(), name: name, hc: httpClient, maxRead: MaxReadBodyBytes,
		targets: make(map[targetKey]*http.Request), metrics: newClientMetrics(nil)}, nil
}

// Name returns the client-side service label.
func (c *Client) Name() string { return c.name }

// SetPeers registers the other cluster nodes' base URLs. With peers
// set, a write whose target is unreachable polls them for the current
// leader and retries there once; without peers only explicit 421
// leader hints are followed.
func (c *Client) SetPeers(peers []string) {
	c.mu.Lock()
	c.peers = append([]string(nil), peers...)
	c.mu.Unlock()
}

// RedirectStats reports how many writes failed over to another node
// and how many of those retries succeeded.
func (c *Client) RedirectStats() RedirectStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.redirects
}

// SetReadMode selects the consistency level reads are issued at.
// ReadLocal (the default) keeps reads pinned to the client's own base
// node; ReadLease and ReadQuorum go to the current leader, following
// leader hints on refusal.
func (c *Client) SetReadMode(mode cluster.ReadMode) {
	c.mu.Lock()
	c.readMode = mode
	c.mu.Unlock()
}

// ReadStats reports the modes that served this client's reads and how
// often reads had to chase a moved leader.
func (c *Client) ReadStats() ReadStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.readStats
}

// BindContext binds ctx to every subsequent request the client issues:
// cancelling it aborts in-flight HTTP round trips, so a cancelled
// campaign stops mid-test instead of waiting out the transport timeout.
// Campaign runners call this once per campaign; it is safe under
// concurrent use of the client.
func (c *Client) BindContext(ctx context.Context) {
	c.mu.Lock()
	c.ctx = ctx
	c.mu.Unlock()
}

// boundCtx returns the bound campaign context, or Background.
func (c *Client) boundCtx() context.Context {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// Write publishes p via POST /posts, following the cluster leader when
// the first-contact node cannot take the write (see Client docs).
func (c *Client) Write(from simnet.Site, p service.Post) (err error) {
	defer func() { c.metrics.write.done(err) }()
	base := c.writeBase()
	err = c.writeTo(base, from, p)
	if err == nil {
		return nil
	}
	target := c.failoverTarget(err)
	if target == "" || target == base {
		return err
	}
	c.mu.Lock()
	c.redirects.RedirectedWrites++
	c.mu.Unlock()
	if rerr := c.writeTo(target, from, p); rerr == nil {
		c.mu.Lock()
		c.redirects.RedirectRetriesOK++
		c.writeTarget = target // subsequent writes go straight to the leader
		c.mu.Unlock()
		return nil
	}
	return err
}

// writeBase returns where writes currently go: the last discovered
// leader, or the client's own base before any failover.
func (c *Client) writeBase() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.writeTarget != "" {
		return c.writeTarget
	}
	return c.base
}

// writeTo issues one POST /posts against base.
func (c *Client) writeTo(base string, from simnet.Site, p service.Post) error {
	t, err := c.target(http.MethodPost, base, "/posts", from)
	if err != nil {
		return err
	}
	body, err := jsonappend.Bytes(func(b []byte) ([]byte, error) {
		return appendPost(b, &PostJSON{ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn})
	})
	if err != nil {
		return fmt.Errorf("httpapi: encode post: %w", err)
	}
	resp, err := c.hc.Do(cluster.NewPost(c.boundCtx(), t.URL, t.Header, body))
	if err != nil {
		return fmt.Errorf("httpapi: write: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return apiError("write", resp)
	}
	return nil
}

// target returns the request http.NewRequestWithContext and Header.Set
// make for method on base+path from site, made once and then shared,
// read only: callers send a copy or take its URL and header. The key
// holds no query, so the cache grows with the bases (the client's own
// and the peers it fails over to) and the agents' sites, never with
// readers or users.
func (c *Client) target(method, base, path string, from simnet.Site) (*http.Request, error) {
	k := targetKey{method, base, path, from}
	c.mu.RLock()
	t, ok := c.targets[k]
	c.mu.RUnlock()
	if ok {
		return t, nil
	}
	t, err := http.NewRequestWithContext(context.Background(), method, base+path, nil)
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		t.Header["Content-Type"] = jsonContentType
	}
	if from != "" {
		t.Header.Set(SiteHeader, string(from))
	}
	c.mu.Lock()
	c.targets[k] = t // two racing misses build equal requests
	c.mu.Unlock()
	return t, nil
}

// failoverTarget maps a failed write to the node the retry should hit:
// a 421's explicit leader hint (polling the peers when the refusing
// node does not know who leads — a freshly deposed leader often
// doesn't), or — when the target is gone entirely and peers are
// configured — whoever the surviving peers say leads now.
// Application-level rejections (429 shed, 503 outage, 4xx) never fail
// over: the cluster answered, it just said no.
func (c *Client) failoverTarget(err error) string {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		if apiErr.Status == http.StatusMisdirectedRequest {
			if apiErr.Leader != "" {
				return apiErr.Leader
			}
			return c.discoverLeader()
		}
		return ""
	}
	return c.discoverLeader()
}

// discoverLeader polls the configured peers for the current leader,
// preferring the answer from the highest term (a deposed leader can
// briefly still claim the title). Returns "" when nobody knows.
func (c *Client) discoverLeader() string {
	c.mu.RLock()
	peers := c.peers
	c.mu.RUnlock()
	var best string
	var bestTerm uint64
	found := false
	for _, peer := range peers {
		st, err := c.clusterStatusAt(peer)
		if err != nil {
			continue
		}
		candidate := ""
		if st.Role == cluster.RoleLeader {
			candidate = peer
		} else if st.LeaderURL != "" {
			candidate = st.LeaderURL
		}
		if candidate == "" {
			continue
		}
		if !found || st.Term > bestTerm {
			best, bestTerm, found = candidate, st.Term, true
		}
	}
	return best
}

// Read lists posts via GET /posts: pinned to the client's base node in
// local mode, on the latched leader in lease/quorum mode (see
// SetReadMode).
func (c *Client) Read(from simnet.Site, reader string) (_ []service.Post, err error) {
	defer func() { c.metrics.read.done(err) }()
	c.mu.RLock()
	mode := c.readMode
	c.mu.RUnlock()
	if mode == "" || mode == cluster.ReadLocal {
		return c.readAt(c.base, from, reader, cluster.ReadLocal)
	}
	return c.readLinearizable(from, reader, mode)
}

// get issues one GET of path?query on base from site (no site header
// when from is empty) and hands the body of a 200, at most maxRead
// bytes, to decode; it returns the answer's header. op names the
// request in errors, what the body.
func (c *Client) get(op, what, base, path, query string, from simnet.Site, decode func([]byte) error) (http.Header, error) {
	t, err := c.target(http.MethodGet, base, path, from)
	if err != nil {
		return nil, err
	}
	req, u := t.WithContext(c.boundCtx()), *t.URL
	u.RawQuery = query
	req.URL = &u
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("httpapi: %s: %w", op, err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(op, resp)
	}
	buf, err := jsonappend.ReadAll(resp.Body, c.maxRead)
	if err != nil {
		return nil, fmt.Errorf("httpapi: %s: %w", op, err)
	}
	defer jsonappend.Put(buf)
	if err := decode(*buf); err != nil {
		return nil, fmt.Errorf("httpapi: decode %s: %w", what, err)
	}
	return resp.Header, nil
}

// readAt issues one GET /posts against base at mode and tallies the mode
// that vouched for the answer: its X-Read-Mode, local when absent.
func (c *Client) readAt(base string, from simnet.Site, reader string, mode cluster.ReadMode) (posts []service.Post, err error) {
	query := "reader=" + url.QueryEscape(reader)
	if mode != cluster.ReadLocal {
		query += "&mode=" + url.QueryEscape(string(mode))
	}
	h, err := c.get("read", "posts", base, "/posts", query, from, func(body []byte) (err error) {
		posts, err = decodePosts(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch cluster.ReadMode(h.Get(ReadModeHeader)) {
	case cluster.ReadLease:
		c.readStats.Lease++
	case cluster.ReadQuorum:
		c.readStats.Quorum++
	default:
		c.readStats.Local++
		c.readStats.Degraded = c.readStats.Degraded || mode != cluster.ReadLocal
	}
	return posts, nil
}

// readLinearizable issues one lease or quorum read against the latched
// leader, re-discovering the leader and retrying once when the latched
// node refuses (421), cannot prove leadership (503), or is gone. This
// is the read-side half of the leader latch: without the retry, a
// client latched onto a deposed leader keeps reading its frozen
// replica forever — stale data served with a straight face.
func (c *Client) readLinearizable(from simnet.Site, reader string, mode cluster.ReadMode) ([]service.Post, error) {
	base := c.writeBase()
	posts, err := c.readAt(base, from, reader, mode)
	if err == nil {
		return posts, nil
	}
	target := c.readFailoverTarget(err)
	if target == "" || target == base {
		return nil, err
	}
	c.mu.Lock()
	c.readStats.RedirectedReads++
	c.mu.Unlock()
	posts, rerr := c.readAt(target, from, reader, mode)
	if rerr != nil {
		return nil, err
	}
	c.mu.Lock()
	c.readStats.RedirectRetriesOK++
	c.writeTarget = target // reads and writes share the leader latch
	c.mu.Unlock()
	return posts, nil
}

// readFailoverTarget is failoverTarget with one read-specific addition:
// a 503 means the node answered but could not confirm a quorum round —
// a partitioned or mid-election ex-leader — so the peers are polled
// for whoever actually leads now. (Writes treat 503 as an outage and
// never fail over; a read retried elsewhere is always safe.)
func (c *Client) readFailoverTarget(err error) string {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
		return c.discoverLeader()
	}
	return c.failoverTarget(err)
}

// decodePosts returns what json.Unmarshal reads from a GET /posts body
// into a []PostJSON, copied into service.Posts — never nil, so [] and
// null both read as an empty timeline. Every string but the IDs is
// carved from one copy of body, so keeping a post's author, body or
// depends_on keeps that whole copy alive.
func decodePosts(body []byte) ([]service.Post, error) {
	sc := jsonappend.NewScanner(body)
	if posts := scanPosts(&sc, body); sc.Done() || string(body) == "[]\n" { // Array refuses []
		return posts, nil
	}
	var wire []PostJSON
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	return timeline(wire), nil
}

// scanPosts reads what appendPosts writes for a non-empty timeline into
// a slice sized, once, by how many posts body can hold. The IDs then
// move into one string of their own: a probe's trace keeps every read's
// IDs for the whole campaign, and they must not keep the body alive.
func scanPosts(sc *jsonappend.Scanner, body []byte) []service.Post {
	posts := make([]service.Post, 0, bytes.Count(body, []byte(`{"id":`)))
	n := 0
	sc.Array(func() {
		posts = append(posts, service.Post{})
		p := &posts[len(posts)-1]
		sc.Object("id", &p.ID, "author", &p.Author, "body", &p.Body, "depends_on", &p.DependsOn, "created_at", &p.CreatedAt)
		n += len(p.ID)
	})
	var ids strings.Builder
	ids.Grow(n)
	for i := range posts {
		ids.WriteString(posts[i].ID)
	}
	all := ids.String()
	for i := range posts {
		posts[i].ID, all = all[:len(posts[i].ID)], all[len(posts[i].ID):]
	}
	return posts
}

// timeline copies a decoded wire timeline into service.Posts.
func timeline(wire []PostJSON) []service.Post {
	out := make([]service.Post, len(wire))
	for i, p := range wire {
		out[i] = service.Post{ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn, CreatedAt: p.CreatedAt}
	}
	return out
}

// Reset clears service state via DELETE /posts. Request and status
// errors are returned: a campaign must know when a reset did not take,
// or the previous test's posts leak into the next trace.
func (c *Client) Reset() (err error) {
	defer func() { c.metrics.reset.done(err) }()
	req, err := http.NewRequestWithContext(c.boundCtx(), http.MethodDelete, c.base+"/posts", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: reset: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return apiError("reset", resp)
	}
	return nil
}

// TimeProbe returns a clocksync.ProbeFunc that reads the server's clock
// via GET /time, for coordinator-side delta estimation.
func (c *Client) TimeProbe() clocksync.ProbeFunc {
	return func() (_ time.Time, err error) {
		defer func() { c.metrics.timeProbe.done(err) }()
		var t TimeJSON
		_, err = c.get("time probe", "time", c.base, "/time", "", "", func(body []byte) error { return json.Unmarshal(body, &t) })
		return t.Now, err
	}
}

// ErrNoCluster reports the server runs standalone: it has no
// /cluster/status endpoint. Monitors use it to stop polling for
// replication state instead of logging 404s forever.
var ErrNoCluster = errors.New("httpapi: server is not in cluster mode")

// ClusterStatus fetches the node's replication state via GET
// /cluster/status. A standalone server yields ErrNoCluster.
func (c *Client) ClusterStatus() (*cluster.StatusJSON, error) {
	return c.clusterStatusAt(c.base)
}

func (c *Client) clusterStatusAt(base string) (*cluster.StatusJSON, error) {
	var st cluster.StatusJSON
	_, err := c.get("cluster status", "cluster status", base, "/cluster/status", "", "", func(body []byte) error { return json.Unmarshal(body, &st) })
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		return nil, ErrNoCluster
	}
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// APIError is a non-success response from the server, carrying the
// status code and any Retry-After hint so callers (the resilience
// middleware, conload) can distinguish shed/outage rejections from
// other failures and pace their retries.
type APIError struct {
	Op         string
	Status     int
	Msg        string
	RetryAfter time.Duration // 0 = no hint
	// Leader is the X-Cluster-Leader redirection target sent with a 421
	// (the contacted node is a follower); empty otherwise. conload
	// follows it during failover.
	Leader string
}

func (e *APIError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("httpapi: %s: status %d", e.Op, e.Status)
	}
	return fmt.Sprintf("httpapi: %s: status %d: %s", e.Op, e.Status, e.Msg)
}

// RetryAfterHint reports the server's Retry-After, if it sent one. The
// resilience middleware discovers this method structurally and extends
// its backoff to honor the hint.
func (e *APIError) RetryAfterHint() (time.Duration, bool) {
	return e.RetryAfter, e.RetryAfter > 0
}

// apiError converts a non-success response into an *APIError carrying
// the server's message and Retry-After hint.
func apiError(op string, resp *http.Response) error {
	e := &APIError{
		Op: op, Status: resp.StatusCode, RetryAfter: retryAfterOf(resp),
		Leader: resp.Header.Get(LeaderHeader),
	}
	var body errorJSON
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body); err == nil {
		e.Msg = body.Error
	}
	return e
}

// retryAfterOf parses the Retry-After header: delay-seconds, or an HTTP
// date relative to now. Absent or unparsable yields 0 (no hint).
func retryAfterOf(resp *http.Response) time.Duration {
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// drain discards and closes the response body so connections are reused.
func drain(resp *http.Response) {
	if b, err := jsonappend.ReadAll(resp.Body, 1<<20); err == nil {
		jsonappend.Put(b)
	}
	_ = resp.Body.Close()
}
