// Package httpapi exposes any service.Service over a JSON HTTP API and
// provides a client that implements service.Service against such an API.
// This is the live-probing path: the same agents, tests and checkers
// that run against the in-process simulator can probe a service across a
// real network, and the /time endpoint supports the coordinator's
// Cristian-style clock synchronization.
//
// API:
//
//	POST   /posts   {"id","author","body"}   publish a post
//	GET    /posts?reader=R[&mode=M]           list posts in service order
//	DELETE /posts                             reset service state
//	GET    /time                              server clock reading
//	GET    /healthz                           liveness
//	GET    /stats                             request counters
//
// A read names its consistency level with mode: local (the default, the
// replica as it stands), lease or quorum (a cluster leader proves the
// read is current, answering X-Read-Mode; see cluster.ReadMode).
//
// Clients identify their location with the X-Client-Site header; the
// paper's agents would set oregon, tokyo or ireland. Requests beyond the
// configured rate receive 429, mirroring the service rate limits that
// shaped the paper's test parameters (Tables I and II).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/jsonappend"
	"conprobe/internal/obs"
	"conprobe/internal/ratelimit"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// SiteHeader carries the client's location.
const SiteHeader = "X-Client-Site"

// PostJSON is the wire form of a post.
type PostJSON struct {
	ID        string    `json:"id"`
	Author    string    `json:"author"`
	Body      string    `json:"body,omitempty"`
	DependsOn string    `json:"depends_on,omitempty"`
	CreatedAt time.Time `json:"created_at,omitempty"`
}

// TimeJSON is the wire form of a clock reading.
type TimeJSON struct {
	Now time.Time `json:"now"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// ServerConfig parameterizes the HTTP facade.
type ServerConfig struct {
	// Clock is the time source for /time and rate limiting (defaults to
	// the real clock).
	Clock vtime.Clock
	// RatePerSecond is the per-client request budget (0 disables
	// limiting).
	RatePerSecond float64
	// Burst is the limiter's burst size (defaults to RatePerSecond).
	Burst float64
	// MaxBodyBytes caps the request body accepted on POST /posts
	// (default 1 MiB; negative disables the limit). Slow or hostile
	// clients cannot tie a handler to an unbounded body.
	MaxBodyBytes int64
	// MaxInflight bounds concurrent /posts requests inside the service (0
	// disables admission control). Requests beyond it wait in a bounded
	// queue; requests beyond MaxInflight+MaxQueue are shed immediately
	// with 429 and a Retry-After hint, so overload degrades into fast
	// rejections instead of unbounded queueing.
	MaxInflight int
	// MaxQueue is how many /posts requests may wait for an inflight slot
	// (0 = shed as soon as MaxInflight is saturated).
	MaxQueue int
	// RetryAfter is the hint sent on shed and rate-limited responses
	// (default 1s).
	RetryAfter time.Duration
	// Metrics, when non-nil, receives per-request telemetry (request,
	// dedup-hit, rate-limit and body-cap counters) and mounts the
	// scope's registry at GET /metrics (Prometheus text, or JSON with
	// ?format=json).
	Metrics *obs.Scope
}

// DefaultMaxBodyBytes is the POST body cap applied when the config does
// not set one.
const DefaultMaxBodyBytes = 1 << 20

// MaxReadBodyBytes caps every body a Client reads — GET /posts, /time
// and /cluster/status — so a broken or hostile server cannot exhaust its
// memory; a longer body fails the call, naming the cap. At ≈ 150 bytes a
// post, that is ≈ 400,000 posts, far beyond any campaign's or conload
// run's timeline.
const MaxReadBodyBytes = 64 << 20

// Server serves a Service over HTTP.
type Server struct {
	svc   service.Service
	clock vtime.Clock
	cfg   ServerConfig
	mux   *http.ServeMux

	mu       sync.Mutex
	limiters map[string]*ratelimit.Limiter
	// seenIDs holds the post IDs written since the last reset (true) and
	// being written now (false); settled is broadcast as each write ends.
	seenIDs map[string]bool
	settled *sync.Cond
	metrics serverMetrics
	gate    *gate
}

// gate is the bounded admission queue: up to cap(sem) requests run, up
// to maxQueue more wait, the rest are shed. The channel is the
// semaphore; queued is only bookkeeping for the shed decision and the
// queue-depth gauge.
type gate struct {
	sem      chan struct{}
	maxQueue int

	mu     sync.Mutex
	queued int

	inflight *obs.Gauge
	depth    *obs.Gauge
}

func newGate(maxInflight, maxQueue int, sc *obs.Scope) *gate {
	return &gate{
		sem:      make(chan struct{}, maxInflight),
		maxQueue: maxQueue,
		inflight: sc.Gauge("inflight", "Admitted /posts requests currently executing."),
		depth:    sc.Gauge("queue_depth", "/posts requests waiting for an inflight slot."),
	}
}

// acquire admits the request, blocking in the bounded queue if needed.
// It reports false when the queue is full (shed) or ctx ended first.
func (g *gate) acquire(ctx context.Context) bool {
	select {
	case g.sem <- struct{}{}:
		g.inflight.Add(1)
		return true
	default:
	}
	g.mu.Lock()
	if g.queued >= g.maxQueue {
		g.mu.Unlock()
		return false
	}
	g.queued++
	g.mu.Unlock()
	g.depth.Add(1)
	defer func() {
		g.depth.Add(-1)
		g.mu.Lock()
		g.queued--
		g.mu.Unlock()
	}()
	select {
	case g.sem <- struct{}{}:
		g.inflight.Add(1)
		return true
	case <-ctx.Done():
		return false
	}
}

func (g *gate) release() {
	<-g.sem
	g.inflight.Add(-1)
}

// serverMetrics are the request counters behind both /metrics and
// /stats (which omits body-cap rejections). Handles are always non-nil
// and live (a nil ServerConfig.Metrics yields unregistered ones).
type serverMetrics struct {
	writes       *obs.Counter
	reads        *obs.Counter
	resets       *obs.Counter
	rateLimited  *obs.Counter
	errors       *obs.Counter
	dedupHits    *obs.Counter
	bodyCapRejns *obs.Counter
	shed         *obs.Counter
	unavailable  *obs.Counter
}

func newServerMetrics(sc *obs.Scope) serverMetrics {
	return serverMetrics{
		writes:       sc.Counter("writes_total", "POST /posts requests accepted."),
		reads:        sc.Counter("reads_total", "GET /posts requests served."),
		resets:       sc.Counter("resets_total", "DELETE /posts requests served."),
		rateLimited:  sc.Counter("rate_limited_total", "Requests rejected with 429."),
		errors:       sc.Counter("errors_total", "Requests failed by the backing service."),
		dedupHits:    sc.Counter("dedup_hits_total", "Write replays acknowledged without re-inserting."),
		bodyCapRejns: sc.Counter("body_cap_rejections_total", "POST bodies rejected with 413 for exceeding MaxBodyBytes."),
		shed:         sc.Counter("shed_total", "Requests shed with 429 by the admission queue."),
		unavailable:  sc.Counter("unavailable_total", "Requests rejected with 503 during a scheduled outage."),
	}
}

// StatsJSON counts requests served since start.
type StatsJSON struct {
	Writes      int `json:"writes"`
	Reads       int `json:"reads"`
	Resets      int `json:"resets"`
	RateLimited int `json:"rate_limited"`
	Errors      int `json:"errors"`
	// DedupedWrites counts POSTs whose post ID was already accepted
	// since the last reset — idempotent replays of retried writes.
	DedupedWrites int `json:"deduped_writes"`
	// Shed counts requests rejected by the bounded admission queue.
	Shed int `json:"shed"`
	// Unavailable counts requests rejected during a scheduled outage.
	Unavailable int `json:"unavailable"`
}

var _ http.Handler = (*Server)(nil)

// NewServer wraps svc in an HTTP handler.
func NewServer(svc service.Service, cfg ServerConfig) *Server {
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.RatePerSecond
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		svc:      svc,
		clock:    cfg.Clock,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		limiters: make(map[string]*ratelimit.Limiter),
		seenIDs:  make(map[string]bool),
		metrics:  newServerMetrics(cfg.Metrics),
	}
	s.settled = sync.NewCond(&s.mu)
	if cfg.MaxInflight > 0 {
		s.gate = newGate(cfg.MaxInflight, cfg.MaxQueue, cfg.Metrics)
	}
	s.mux.HandleFunc("/posts", s.handlePosts)
	s.mux.HandleFunc("/time", s.handleTime)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/stats", s.handleStats)
	if reg := cfg.Metrics.Registry(); reg != nil {
		s.mux.Handle("/metrics", reg.Handler())
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// allow checks the per-client rate limit.
func (s *Server) allow(r *http.Request) bool {
	if s.cfg.RatePerSecond <= 0 {
		return true
	}
	key := r.Header.Get(SiteHeader)
	if key == "" {
		key = r.RemoteAddr
	}
	s.mu.Lock()
	l, ok := s.limiters[key]
	if !ok {
		l = ratelimit.New(s.clock, s.cfg.RatePerSecond, s.cfg.Burst)
		s.limiters[key] = l
	}
	s.mu.Unlock()
	return l.Allow()
}

func (s *Server) handlePosts(w http.ResponseWriter, r *http.Request) {
	// Overload ordering: a scheduled outage rejects before any work is
	// attempted (503, Retry-After covering the remaining window), then
	// the bounded admission queue (429 on shed), then the per-client
	// rate limit (429). Each check is cheaper than the stage behind it,
	// so saturation degrades into fast rejections.
	if inj, ok := s.svc.(interface{ Outage() (bool, time.Duration) }); ok {
		if active, remaining := inj.Outage(); active {
			s.metrics.unavailable.Inc()
			writeRetryJSON(w, http.StatusServiceUnavailable, remaining, errorJSON{Error: "service outage in progress"})
			return
		}
	}
	if s.gate != nil {
		if !s.gate.acquire(r.Context()) {
			s.metrics.shed.Inc()
			writeRetryJSON(w, http.StatusTooManyRequests, s.cfg.RetryAfter, errorJSON{Error: "server overloaded, request shed"})
			return
		}
		defer s.gate.release()
	}
	if !s.allow(r) {
		s.metrics.rateLimited.Inc()
		writeRetryJSON(w, http.StatusTooManyRequests, s.cfg.RetryAfter, errorJSON{Error: "rate limit exceeded"})
		return
	}
	site := simnet.Site(r.Header.Get(SiteHeader))
	switch r.Method {
	case http.MethodPost:
		body := r.Body
		if s.cfg.MaxBodyBytes > 0 {
			body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		var p PostJSON
		buf, err := jsonappend.ReadAll(body, math.MaxInt)
		if err == nil {
			err = decodePost(*buf, &p)
			jsonappend.Put(buf)
		}
		if err != nil {
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
				s.metrics.bodyCapRejns.Inc()
			}
			writeJSON(w, status, errorJSON{Error: fmt.Sprintf("decode post: %v", err)})
			return
		}
		if p.ID == "" {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: "post id is required"})
			return
		}
		// Idempotency: post IDs are client-supplied and unique, so a POST
		// replaying an already-accepted ID is a retried write whose
		// acknowledgment was lost. Acknowledge it again without
		// re-inserting — a duplicate insert would corrupt the
		// monotonic-writes and divergence checkers downstream.
		// The ID is claimed before the write starts: a replay arriving while
		// the original is still in Write — a cluster leader waiting for its
		// quorum — waits for its outcome, and writes only if it failed.
		s.mu.Lock()
		for done, ok := s.seenIDs[p.ID]; ok && !done; done, ok = s.seenIDs[p.ID] {
			s.settled.Wait()
		}
		dup := s.seenIDs[p.ID]
		if !dup {
			s.seenIDs[p.ID] = false
		}
		s.mu.Unlock()
		if dup {
			s.metrics.dedupHits.Inc()
			writePost(w, &p)
			return
		}
		err = s.svc.Write(site, service.Post{
			ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn,
		})
		s.mu.Lock()
		if err == nil {
			s.seenIDs[p.ID] = true
		} else {
			delete(s.seenIDs, p.ID)
		}
		s.mu.Unlock()
		s.settled.Broadcast()
		if err != nil {
			s.metrics.errors.Inc()
			s.writeServiceError(w, http.StatusBadGateway, err)
			return
		}
		s.metrics.writes.Inc()
		writePost(w, &p)
	case http.MethodGet:
		q := r.URL.Query()
		mode, err := cluster.ParseReadMode(q.Get("mode"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
			return
		}
		var posts []service.Post
		used, failed := cluster.ReadLocal, http.StatusBadGateway
		if lin, ok := s.svc.(linearizable); ok && mode != cluster.ReadLocal {
			posts, used, err = lin.ReadLinearizable(site, q.Get("reader"), mode)
			failed = http.StatusServiceUnavailable // could not vouch: the client polls for the leader
		} else {
			posts, err = s.svc.Read(site, q.Get("reader"))
		}
		if err != nil {
			s.metrics.errors.Inc()
			s.writeServiceError(w, failed, err)
			return
		}
		if mode != cluster.ReadLocal {
			w.Header().Set(ReadModeHeader, string(used))
		}
		s.metrics.reads.Inc()
		writePosts(w, posts)
	case http.MethodDelete:
		if err := s.svc.Reset(); err != nil {
			s.metrics.errors.Inc()
			s.writeServiceError(w, http.StatusBadGateway, err)
			return
		}
		s.mu.Lock()
		s.seenIDs = make(map[string]bool)
		s.mu.Unlock()
		s.metrics.resets.Inc()
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "method not allowed"})
	}
}

// LeaderHint is the structural shape of a not-the-leader rejection
// (implemented by cluster.NotLeaderError, and faked by tests). Writes
// and lease/quorum reads refused with it map to 421 Misdirected Request
// plus an X-Cluster-Leader header pointing the client at the leader.
type LeaderHint interface {
	error
	LeaderHint() string
}

// LeaderHeader carries the leader's URL on 421 responses.
const LeaderHeader = "X-Cluster-Leader"

// ReadModeHeader names, on the answer to GET /posts?mode=lease|quorum,
// the mode that vouched for the read: a stale lease upgrades to a
// quorum round, and a service that cannot prove freshness answers local.
const ReadModeHeader = "X-Read-Mode"

// linearizable is the structural shape of a service that serves reads
// at a consistency level (implemented by *cluster.Node).
type linearizable interface {
	ReadLinearizable(from simnet.Site, reader string, mode cluster.ReadMode) ([]service.Post, cluster.ReadMode, error)
}

// writeServiceError maps a service failure onto the wire: leadership
// misdirection becomes 421+X-Cluster-Leader, everything else status.
func (s *Server) writeServiceError(w http.ResponseWriter, status int, err error) {
	var lh LeaderHint
	if errors.As(err, &lh) {
		if leader := lh.LeaderHint(); leader != "" {
			w.Header().Set(LeaderHeader, leader)
		}
		writeJSON(w, http.StatusMisdirectedRequest, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

func (s *Server) handleTime(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "method not allowed"})
		return
	}
	writeJSON(w, http.StatusOK, TimeJSON{Now: s.clock.Now()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "method not allowed"})
		return
	}
	m := &s.metrics
	writeJSON(w, http.StatusOK, StatsJSON{
		Writes:        int(m.writes.Value()),
		Reads:         int(m.reads.Value()),
		Resets:        int(m.resets.Value()),
		RateLimited:   int(m.rateLimited.Value()),
		Errors:        int(m.errors.Value()),
		DedupedWrites: int(m.dedupHits.Value()),
		Shed:          int(m.shed.Value()),
		Unavailable:   int(m.unavailable.Value()),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "service": s.svc.Name()})
}

// Hardened wraps handler in an http.Server with conservative timeouts,
// so slow or stalled clients cannot pin connections indefinitely: header
// read 10s, full request read 30s, response write 30s, idle keep-alive
// 2m. cmd/consvc serves through this.
func Hardened(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// writeRetryJSON is writeJSON with a Retry-After header: whole seconds,
// rounded up, at least 1 — a zero hint would tell clients to hammer.
func writeRetryJSON(w http.ResponseWriter, status int, after time.Duration, v any) {
	secs := int64((after + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, v)
}

// jsonContentType is the Content-Type of every JSON answer and request,
// assigned to a header map rather than set: shared, never written.
var jsonContentType = []string{"application/json"}

// writeAppended answers with what appendTo writes, encoded in a pooled
// buffer. Like writeJSON, it sends the status and no body when the
// encoding fails: the connection is already committed.
func writeAppended(w http.ResponseWriter, status int, appendTo func([]byte) ([]byte, error)) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	buf := jsonappend.Get()
	defer jsonappend.Put(buf)
	b, err := appendTo(*buf)
	if err != nil {
		return
	}
	*buf = b
	_, _ = w.Write(b)
}

// writePosts answers a read with the bytes writeJSON would send for the
// timeline as a []PostJSON, encoded without reflection or an object per
// created_at.
func writePosts(w http.ResponseWriter, posts []service.Post) {
	writeAppended(w, http.StatusOK, func(b []byte) ([]byte, error) { return appendPosts(b, posts) })
}

// writePost acknowledges a write with the bytes writeJSON(w, 201, *p)
// would send.
func writePost(w http.ResponseWriter, p *PostJSON) {
	writeAppended(w, http.StatusCreated, func(b []byte) ([]byte, error) {
		b, err := appendPost(b, p)
		return append(b, '\n'), err
	})
}

// appendPosts appends what json.Encoder writes for posts as a
// []PostJSON: the array as json.Marshal encodes it ([] for none, nil
// included), then a newline.
func appendPosts(b []byte, posts []service.Post) ([]byte, error) {
	b = append(b, '[')
	for i := range posts {
		if i > 0 {
			b = append(b, ',')
		}
		p := &posts[i]
		var err error
		if b, err = appendPost(b, &PostJSON{ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn, CreatedAt: p.CreatedAt}); err != nil {
			return nil, err
		}
	}
	return append(b, "]\n"...), nil
}

// appendPost appends p as json.Marshal(p) would. created_at is always
// present (omitempty does nothing on a struct), the zero time included.
func appendPost(b []byte, p *PostJSON) ([]byte, error) {
	b = jsonappend.String(append(b, `{"id":`...), p.ID)
	b = jsonappend.String(append(b, `,"author":`...), p.Author)
	if p.Body != "" {
		b = jsonappend.String(append(b, `,"body":`...), p.Body)
	}
	if p.DependsOn != "" {
		b = jsonappend.String(append(b, `,"depends_on":`...), p.DependsOn)
	}
	b, err := jsonappend.Time(append(b, `,"created_at":`...), p.CreatedAt)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// decodePost sets *p, zero, to json.Unmarshal's reading of body.
func decodePost(body []byte, p *PostJSON) error {
	sc := jsonappend.NewScanner(body)
	scanPost(&sc, p)
	return jsonappend.Fallback(&sc, body, p)
}

// scanPost reads what appendPost writes.
func scanPost(sc *jsonappend.Scanner, p *PostJSON) {
	sc.Object("id", &p.ID, "author", &p.Author, "body", &p.Body, "depends_on", &p.DependsOn, "created_at", &p.CreatedAt)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	// Encoding failures at this point cannot be reported to the client;
	// the connection is already committed.
	_ = json.NewEncoder(w).Encode(v)
}
