package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

func TestWriteDedup(t *testing.T) {
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	p := service.Post{ID: "w1", Author: "agent1", Body: "once"}
	if err := cl.Write(simnet.Oregon, p); err != nil {
		t.Fatal(err)
	}
	// The replay is acknowledged like the original...
	if err := cl.Write(simnet.Oregon, p); err != nil {
		t.Fatalf("replayed write rejected: %v", err)
	}
	// ...but only one post exists.
	posts, err := cl.Read(simnet.Oregon, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 1 {
		t.Fatalf("replayed write duplicated: %d posts", len(posts))
	}
	var st StatsJSON
	getJSON(t, srv, "/stats", &st)
	if st.Writes != 1 || st.DedupedWrites != 1 {
		t.Fatalf("stats = %+v, want 1 write + 1 dedup", st)
	}

	// Reset clears dedup state: the same ID is a fresh post afterwards.
	if err := cl.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(simnet.Oregon, p); err != nil {
		t.Fatal(err)
	}
	posts, err = cl.Read(simnet.Oregon, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 1 {
		t.Fatalf("post-reset write produced %d posts, want 1", len(posts))
	}
}

func TestPostBodySizeLimit(t *testing.T) {
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{MaxBodyBytes: 256}))
	defer srv.Close()
	big := `{"id":"b1","author":"a","body":"` + strings.Repeat("x", 1024) + `"}`
	resp, err := srv.Client().Post(srv.URL+"/posts", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST status = %d, want 413", resp.StatusCode)
	}
	// A normal-sized post still goes through.
	small := `{"id":"s1","author":"a","body":"hi"}`
	resp2, err := srv.Client().Post(srv.URL+"/posts", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("normal POST status = %d, want 201", resp2.StatusCode)
	}
}

// ackDropper performs each request for real but reports a transport
// error for the first n POST /posts responses — the shape of a write
// whose acknowledgment is lost after the server already applied it.
type ackDropper struct {
	inner http.RoundTripper
	mu    sync.Mutex
	drop  int
}

func (d *ackDropper) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.inner.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || req.URL.Path != "/posts" {
		return resp, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.drop > 0 {
		d.drop--
		resp.Body.Close()
		return nil, errDroppedAck
	}
	return resp, nil
}

var errDroppedAck = &injectedError{}

func TestRetriedWriteNotDuplicated(t *testing.T) {
	// End-to-end idempotency: the server applies a write, the ack is lost
	// in transit, the resilience layer retries with the same post ID, and
	// the server dedupes — exactly one post, zero manufactured anomalies.
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
	defer srv.Close()
	hc := srv.Client()
	hc.Transport = &ackDropper{inner: http.DefaultTransport, drop: 1}
	cl, err := NewClient(srv.URL, "mem", hc)
	if err != nil {
		t.Fatal(err)
	}
	rs := resilience.Wrap(cl, vtime.Real{}, resilience.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		JitterFrac:  -1,
	})
	if err := rs.Write(simnet.Oregon, service.Post{ID: "w1", Author: "agent1"}); err != nil {
		t.Fatalf("retried write failed: %v", err)
	}
	posts, err := rs.Read(simnet.Oregon, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 1 {
		t.Fatalf("retried write left %d posts, want exactly 1", len(posts))
	}
	st := rs.Stats()
	if st.Retries != 1 || st.Recovered != 1 {
		t.Fatalf("resilience stats = %+v, want 1 retry recovered", st)
	}
	var srvStats StatsJSON
	getJSON(t, srv, "/stats", &srvStats)
	if srvStats.Writes != 1 || srvStats.DedupedWrites != 1 {
		t.Fatalf("server stats = %+v, want the replay deduped", srvStats)
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// gatedService holds every Write until the test opens the gate, as a
// cluster leader holds a write until its quorum answers; with fail set,
// the first Write then fails.
type gatedService struct {
	memService
	fail    bool
	entered chan struct{}
	gate    chan struct{}
	mu      sync.Mutex
	calls   int
}

func (g *gatedService) Write(from simnet.Site, p service.Post) error {
	g.mu.Lock()
	g.calls++
	first := g.calls == 1
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.gate
	if first && g.fail {
		return errInjected
	}
	return g.memService.Write(from, p)
}

// TestConcurrentReplayWaitsForOriginal: a replay of a post ID that
// arrives while the original is still in the service's Write must not
// write the post again. It waits for the original's outcome — 201 once
// that write has succeeded; if it failed, the replay writes itself.
func TestConcurrentReplayWaitsForOriginal(t *testing.T) {
	for _, originalFails := range []bool{false, true} {
		svc := &gatedService{fail: originalFails, entered: make(chan struct{}, 2), gate: make(chan struct{})}
		srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
		cl, err := NewClient(srv.URL, "gated", srv.Client())
		if err != nil {
			t.Fatal(err)
		}
		p := service.Post{ID: "w1", Author: "agent1", Body: "once"}
		errs := make(chan error, 2)
		write := func() { errs <- cl.Write(simnet.Oregon, p) }
		go write()
		<-svc.entered // the original is in Write
		go write()
		time.Sleep(50 * time.Millisecond) // the replay's chance to overtake it
		close(svc.gate)
		failed := 0
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				failed++
			}
		}
		svc.mu.Lock()
		calls := svc.calls
		svc.mu.Unlock()
		wantFailed, wantCalls := 0, 1
		if originalFails {
			wantFailed, wantCalls = 1, 2
		}
		if failed != wantFailed || calls != wantCalls || len(svc.posts) != 1 {
			t.Errorf("original fails %v: %d writes failed, %d Write calls, %d posts; want %d, %d, 1",
				originalFails, failed, calls, len(svc.posts), wantFailed, wantCalls)
		}
		srv.Close()
	}
}
