package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"conprobe/internal/clocksync"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// memService is a trivial strongly consistent in-memory Service for
// exercising the HTTP layer without the simulator.
type memService struct {
	mu    sync.Mutex
	posts []service.Post
}

func (m *memService) Name() string { return "mem" }

func (m *memService) Write(_ simnet.Site, p service.Post) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.CreatedAt = time.Now()
	m.posts = append(m.posts, p)
	return nil
}

func (m *memService) Read(_ simnet.Site, _ string) ([]service.Post, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]service.Post(nil), m.posts...), nil
}

func (m *memService) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.posts = nil
	return nil
}

func newPair(t *testing.T, cfg ServerConfig) (*Client, *memService) {
	t.Helper()
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, cfg))
	t.Cleanup(srv.Close)
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	return cl, svc
}

func TestWriteReadResetRoundTrip(t *testing.T) {
	cl, _ := newPair(t, ServerConfig{})
	if err := cl.Write(simnet.Oregon, service.Post{ID: "m1", Author: "agent1", Body: "hi"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(simnet.Tokyo, service.Post{ID: "m2", Author: "agent2"}); err != nil {
		t.Fatal(err)
	}
	posts, err := cl.Read(simnet.Ireland, "agent3")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 2 || posts[0].ID != "m1" || posts[1].ID != "m2" {
		t.Fatalf("read = %+v", posts)
	}
	if posts[0].Author != "agent1" || posts[0].Body != "hi" {
		t.Fatalf("fields lost: %+v", posts[0])
	}
	if posts[0].CreatedAt.IsZero() {
		t.Fatal("created_at lost in transit")
	}
	if err := cl.Reset(); err != nil {
		t.Fatal(err)
	}
	posts, err = cl.Read(simnet.Ireland, "agent3")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 0 {
		t.Fatalf("reset did not clear: %+v", posts)
	}
}

func TestWriteValidation(t *testing.T) {
	cl, _ := newPair(t, ServerConfig{})
	err := cl.Write(simnet.Oregon, service.Post{Author: "agent1"})
	if err == nil || !strings.Contains(err.Error(), "id is required") {
		t.Fatalf("err = %v, want id-required", err)
	}
}

func TestTimeProbeServesServerClock(t *testing.T) {
	fixed := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	cl, _ := newPair(t, ServerConfig{Clock: fixedClock{at: fixed}})
	probe := cl.TimeProbe()
	got, err := probe()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(fixed) {
		t.Fatalf("time = %v, want %v", got, fixed)
	}
	// And it composes with the estimator.
	res, err := clocksync.Estimate(vtime.Real{}, probe, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 3 {
		t.Fatalf("samples = %d", res.Samples)
	}
}

type fixedClock struct{ at time.Time }

func (f fixedClock) Now() time.Time                              { return f.at }
func (f fixedClock) Sleep(time.Duration)                         {}
func (f fixedClock) Since(t time.Time) time.Duration             { return f.at.Sub(t) }
func (f fixedClock) AfterFunc(time.Duration, func()) vtime.Timer { return noopTimer{} }

type noopTimer struct{}

func (noopTimer) Stop() bool { return false }

func (noopTimer) Reset(time.Duration) bool { return false }

func TestRateLimiting(t *testing.T) {
	cl, _ := newPair(t, ServerConfig{RatePerSecond: 0.001, Burst: 2})
	if err := cl.Write(simnet.Oregon, service.Post{ID: "m1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(simnet.Oregon, "r"); err != nil {
		t.Fatal(err)
	}
	// Third request from the same site exceeds the burst.
	err := cl.Write(simnet.Oregon, service.Post{ID: "m2"})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("err = %v, want 429", err)
	}
	// A different site has its own bucket.
	if err := cl.Write(simnet.Tokyo, service.Post{ID: "m3"}); err != nil {
		t.Fatal(err)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/posts", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp2, err := srv.Client().Post(srv.URL+"/time", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("time POST status = %d", resp2.StatusCode)
	}
}

func TestBadPostBody(t *testing.T) {
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/posts", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("not a url", "x", nil); err == nil {
		t.Fatal("bad url accepted")
	}
	if _, err := NewClient("/no-host", "x", nil); err == nil {
		t.Fatal("hostless url accepted")
	}
	cl, err := NewClient("http://example.com", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Name() != "remote" {
		t.Fatal("default name wrong")
	}
}

func TestServiceErrorSurfacesToClient(t *testing.T) {
	// A simulated service rejects unrouted sites; the HTTP layer must
	// relay the message.
	sim := vtime.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	_ = sim
	svc := &memService{}
	srv := httptest.NewServer(NewServer(failing{svc}, ServerConfig{}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	werr := cl.Write(simnet.Oregon, service.Post{ID: "m1"})
	if werr == nil || !strings.Contains(werr.Error(), "injected failure") {
		t.Fatalf("err = %v", werr)
	}
	if _, rerr := cl.Read(simnet.Oregon, "r"); rerr == nil || !strings.Contains(rerr.Error(), "injected failure") {
		t.Fatalf("err = %v", rerr)
	}
}

type failing struct{ service.Service }

func (failing) Write(simnet.Site, service.Post) error { return errInjected }
func (failing) Read(simnet.Site, string) ([]service.Post, error) {
	return nil, errInjected
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected failure" }

func TestStatsEndpoint(t *testing.T) {
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(simnet.Oregon, service.Post{ID: "m1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(simnet.Oregon, "r"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Read(simnet.Tokyo, "r"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Reset(); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Writes != 1 || st.Reads != 2 || st.Resets != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Method check.
	post, err := srv.Client().Post(srv.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats status = %d", post.StatusCode)
	}
}

func TestConcurrentClients(t *testing.T) {
	svc := &memService{}
	srv := httptest.NewServer(NewServer(svc, ServerConfig{}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g%2 == 0 {
					if err := cl.Write(simnet.Oregon, service.Post{
						ID: fmt.Sprintf("g%d-m%d", g, i), Author: "a",
					}); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := cl.Read(simnet.Tokyo, "r"); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	posts, err := cl.Read(simnet.Oregon, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 80 {
		t.Fatalf("posts = %d, want 80", len(posts))
	}
}
