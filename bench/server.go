package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/httpapi"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// spanHeader carries the client-side span that caused a request, so the
// server-side span recorded by the middleware can name its parent.
const spanHeader = "X-Bench-Span"

// rpcCounts is what the handler middleware has seen of one path.
type rpcCounts struct {
	Requests, Bytes int64
}

// server is one consvc-shaped process: a cluster node wrapping the
// in-memory service, mounted as cmd/consvc mounts it (/cluster/ to the
// node's own handler, everything else to the httpapi facade), on a
// loopback listener.
type server struct {
	id   string
	url  string
	addr string
	dir  string
	fs   *countFS
	svc  *memSvc
	node *cluster.Node
	http *http.Server
	done chan struct{}
	// openTook is how long NewNode took: recovery from the data directory.
	openTook time.Duration

	rec *recorder
	// open is the write-handler span in flight, the parent given to the
	// file operations it causes (-1 when none).
	open atomic.Int64

	mu   sync.Mutex
	rpcs map[string]rpcCounts
}

// spanSvc sits between the node and the in-memory service while traced,
// so the apply step shows as its own span.
type spanSvc struct {
	*memSvc
	s *server
}

func (v spanSvc) Write(from simnet.Site, p service.Post) error {
	id := v.s.rec.begin("service.apply", int(v.s.open.Load()), 0)
	err := v.memSvc.Write(from, p)
	v.s.rec.end(id)
	return err
}

// start boots the node from cfg (DataDir, FS and OnEvent included) and
// serves it on addr ("127.0.0.1:0" picks a port; a restart passes the
// old address back).
func startServer(id, addr string, cfg cluster.Config, fs *countFS, rec *recorder) (*server, error) {
	s := &server{id: id, dir: cfg.DataDir, fs: fs, svc: &memSvc{}, rec: rec, rpcs: make(map[string]rpcCounts), done: make(chan struct{})}
	s.open.Store(-1)
	if fs != nil {
		fs.parent = func() int { return int(s.open.Load()) }
		cfg.FS = fs
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.url = "http://" + s.addr
	if cfg.SelfURL == "" && len(cfg.Peers) > 0 {
		cfg.SelfURL = s.url
	}
	var svc service.Service = s.svc
	if rec != nil {
		svc = spanSvc{memSvc: s.svc, s: s}
	}
	opened := time.Now()
	s.node, err = cluster.NewNode(svc, cfg)
	s.openTook = time.Since(opened)
	if err != nil {
		ln.Close()
		return nil, err
	}
	outer := http.NewServeMux()
	outer.Handle("/cluster/", s.node.Handler())
	outer.Handle("/", httpapi.NewServer(s.node, httpapi.ServerConfig{}))
	var handler http.Handler = outer
	if rec != nil {
		handler = s.middleware(outer)
	}
	s.http = httpapi.Hardened(s.addr, handler)
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// middleware records one span per request handled, parented on the
// client span named in the request, and counts requests and bytes by
// path — the replication traffic is measured here, outside the node.
func (s *server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "httpapi.handle"
		if strings.HasPrefix(r.URL.Path, "/cluster/") {
			name = "cluster.handle." + strings.TrimPrefix(r.URL.Path, "/cluster/")
		}
		parent := -1
		if h := r.Header.Get(spanHeader); h != "" {
			if v, err := strconv.Atoi(h); err == nil {
				parent = v
			}
		}
		id := s.rec.begin(name, parent, 0)
		write := r.Method == http.MethodPost && r.URL.Path == "/posts"
		if write {
			s.open.Store(int64(id))
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		if write {
			s.open.CompareAndSwap(int64(id), -1)
		}
		s.rec.end(id)
		bytes := cw.n + int64(len(r.URL.RawQuery))
		if r.ContentLength > 0 {
			bytes += r.ContentLength
		}
		s.mu.Lock()
		c := s.rpcs[r.URL.Path]
		c.Requests++
		c.Bytes += bytes
		s.rpcs[r.URL.Path] = c
		s.mu.Unlock()
	})
}

func (s *server) rpcSnapshot() map[string]rpcCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]rpcCounts, len(s.rpcs))
	for k, v := range s.rpcs {
		out[k] = v
	}
	return out
}

// kill stops the process the way kill -9 would: connections dropped, no
// final compaction. The data directory survives for a restart.
func (s *server) kill() {
	_ = s.http.Close()
	<-s.done
	s.node.Kill()
}

// stop shuts the process down cleanly.
func (s *server) stop() error {
	_ = s.http.Close()
	<-s.done
	return s.node.Close()
}

// benchClient is one closed-loop client: an httpapi.Client on its own
// connection, with a span around every call while traced.
type benchClient struct {
	*httpapi.Client
	rec *recorder
	tr  *http.Transport
	// cur is the span of the call in flight; the round tripper passes it
	// to the server as the parent of what the request causes.
	cur atomic.Int64
	req atomic.Uint64
}

// spanTripper names the causing span on every request.
type spanTripper struct {
	c *benchClient
}

func (t spanTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.c.rec.begin("httpapi.roundtrip", int(t.c.cur.Load()), t.c.req.Load())
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.c.tr.RoundTrip(r)
	t.c.rec.end(id)
	return resp, err
}

func newBenchClient(base string, peers []string, rec *recorder) (*benchClient, error) {
	c := &benchClient{rec: rec, tr: http.DefaultTransport.(*http.Transport).Clone()}
	c.cur.Store(-1)
	hc := &http.Client{Timeout: 30 * time.Second, Transport: c.tr}
	if rec != nil {
		hc.Transport = spanTripper{c: c}
	}
	var err error
	if c.Client, err = httpapi.NewClient(base, "bench", hc); err != nil {
		return nil, err
	}
	if len(peers) > 0 {
		c.SetPeers(peers)
	}
	return c, nil
}

// call runs fn as one client operation named name.
func (c *benchClient) call(name string, fn func() error) (time.Duration, error) {
	id := c.rec.begin("client."+name, -1, c.req.Add(1))
	c.cur.Store(int64(id))
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	c.rec.end(id)
	return d, err
}

func (c *benchClient) close() { c.tr.CloseIdleConnections() }

// samePosts reports how got differs from want, comparing IDs in order.
func samePosts(got, want []service.Post) error {
	if len(got) != len(want) {
		return fmt.Errorf("read %d posts, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Body != want[i].Body {
			return fmt.Errorf("post %d is %q, want %q", i, got[i].ID, want[i].ID)
		}
	}
	return nil
}
