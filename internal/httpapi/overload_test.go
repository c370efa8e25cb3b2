package httpapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"conprobe/internal/faultinject"
	"conprobe/internal/obs"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// slowService blocks every write until release is closed, holding the
// admission gate's inflight slot so the queue and shed paths can be
// driven deterministically.
type slowService struct {
	memService
	entered chan struct{}
	release chan struct{}
}

func (s *slowService) Write(from simnet.Site, p service.Post) error {
	s.entered <- struct{}{}
	<-s.release
	return s.memService.Write(from, p)
}

func TestAdmissionQueueShedsOverflow(t *testing.T) {
	svc := &slowService{
		entered: make(chan struct{}, 4),
		release: make(chan struct{}),
	}
	reg := obs.NewRegistry()
	server := NewServer(svc, ServerConfig{
		MaxInflight: 1,
		MaxQueue:    1,
		RetryAfter:  2 * time.Second,
		Metrics:     reg.Scope("httpapi"),
	})
	srv := httptest.NewServer(server)
	defer srv.Close()
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}

	// First write occupies the single inflight slot.
	var wg sync.WaitGroup
	wg.Add(1)
	errs := make([]error, 2)
	go func() {
		defer wg.Done()
		errs[0] = cl.Write(simnet.Oregon, service.Post{ID: "m1"})
	}()
	<-svc.entered

	// Second write waits in the queue (depth 1 = queue full).
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[1] = cl.Write(simnet.Oregon, service.Post{ID: "m2"})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for server.gate.depth.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second write never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Third write overflows the queue and must be shed immediately.
	shedErr := cl.Write(simnet.Oregon, service.Post{ID: "m3"})
	var apiErr *APIError
	if !errors.As(shedErr, &apiErr) {
		t.Fatalf("shed error = %v, want *APIError", shedErr)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Errorf("shed status = %d, want 429", apiErr.Status)
	}
	if !strings.Contains(apiErr.Msg, "shed") {
		t.Errorf("shed msg = %q", apiErr.Msg)
	}
	if hint, ok := apiErr.RetryAfterHint(); !ok || hint != 2*time.Second {
		t.Errorf("RetryAfterHint = %v, %v, want 2s", hint, ok)
	}

	// Releasing the slot drains the queue; both held writes complete.
	close(svc.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("held write %d: %v", i, err)
		}
	}
	var st StatsJSON
	getJSON(t, srv, "/stats", &st)
	if st.Shed != 1 {
		t.Errorf("/stats shed = %d, want 1", st.Shed)
	}
	if got := server.metrics.shed.Value(); got != 1 {
		t.Errorf("shed_total = %d, want 1", got)
	}
	// The handler's deferred release may lag the client's response by a
	// scheduler beat; poll briefly before asserting the gauges drained.
	deadline = time.Now().Add(5 * time.Second)
	for server.gate.inflight.Value() != 0 || server.gate.depth.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauges after drain: inflight=%v depth=%v, want 0/0",
				server.gate.inflight.Value(), server.gate.depth.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOutageReturns503WithRetryAfter(t *testing.T) {
	inj := faultinject.New(&memService{}, vtime.Real{}, faultinject.Config{
		Seed:    1,
		Outages: []faultinject.Outage{{Start: 0, End: time.Hour}},
	})
	srv := httptest.NewServer(NewServer(inj, ServerConfig{}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "mem", srv.Client())
	if err != nil {
		t.Fatal(err)
	}

	werr := cl.Write(simnet.Oregon, service.Post{ID: "m1"})
	var apiErr *APIError
	if !errors.As(werr, &apiErr) {
		t.Fatalf("outage error = %v, want *APIError", werr)
	}
	if apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("outage status = %d, want 503", apiErr.Status)
	}
	if !strings.Contains(apiErr.Msg, "outage") {
		t.Errorf("outage msg = %q", apiErr.Msg)
	}
	// Retry-After must cover (approximately) the remaining window.
	hint, ok := apiErr.RetryAfterHint()
	if !ok || hint < 50*time.Minute || hint > time.Hour {
		t.Errorf("RetryAfterHint = %v, %v, want ~1h", hint, ok)
	}
}

// sleepRecorder is a real-time clock whose Sleep returns instantly and
// records the requested durations.
type sleepRecorder struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *sleepRecorder) Now() time.Time                  { return time.Now() }
func (c *sleepRecorder) Since(t time.Time) time.Duration { return time.Since(t) }
func (c *sleepRecorder) Sleep(d time.Duration) {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
}
func (c *sleepRecorder) AfterFunc(d time.Duration, f func()) vtime.Timer {
	return time.AfterFunc(0, f)
}

// TestRetryAfterHonoredEndToEnd drives the full loop: the server sheds
// with a Retry-After hint, the client surfaces it as an *APIError, and
// the resilience middleware stretches its backoff to the hint.
func TestRetryAfterHonoredEndToEnd(t *testing.T) {
	var calls int
	var mu sync.Mutex
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			writeRetryJSON(w, http.StatusTooManyRequests, 7*time.Second, errorJSON{Error: "server overloaded, request shed"})
			return
		}
		writeJSON(w, http.StatusCreated, PostJSON{ID: "m1"})
	}))
	defer backend.Close()

	cl, err := NewClient(backend.URL, "mem", backend.Client())
	if err != nil {
		t.Fatal(err)
	}
	clock := &sleepRecorder{}
	rs := resilience.Wrap(cl, clock, resilience.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
	})
	if err := rs.Write(simnet.Oregon, service.Post{ID: "m1"}); err != nil {
		t.Fatalf("write through resilience: %v", err)
	}
	clock.mu.Lock()
	defer clock.mu.Unlock()
	if len(clock.sleeps) != 1 {
		t.Fatalf("backoff sleeps = %v, want exactly one", clock.sleeps)
	}
	if clock.sleeps[0] != 7*time.Second {
		t.Errorf("backoff = %v, want the server's 7s Retry-After hint", clock.sleeps[0])
	}
}
