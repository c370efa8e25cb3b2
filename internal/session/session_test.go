package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
)

// fakeService is a scripted Service for unit-testing the masking logic.
type fakeService struct {
	mu       sync.Mutex
	reads    [][]service.Post
	next     int
	writeErr error
	readErr  error
	resets   int
	writes   []service.Post
	// shared hands out the scripted slices themselves, as a service
	// shares one rendering among its readers.
	shared bool
}

func (f *fakeService) Name() string { return "fake" }

func (f *fakeService) Write(_ simnet.Site, p service.Post) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeErr != nil {
		return f.writeErr
	}
	f.writes = append(f.writes, p)
	return nil
}

func (f *fakeService) Read(_ simnet.Site, _ string) ([]service.Post, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.readErr != nil {
		return nil, f.readErr
	}
	if f.next >= len(f.reads) {
		return nil, nil
	}
	out := f.reads[f.next]
	f.next++
	if f.shared {
		return slices.Clip(out), nil
	}
	return append([]service.Post(nil), out...), nil
}

func (f *fakeService) Reset() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resets++
	f.next = 0
	return nil
}

func post(id string) service.Post { return service.Post{ID: id, Author: "agent1"} }

func idsOf(ps []service.Post) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRYWMaskingReplaysOwnWrites(t *testing.T) {
	f := &fakeService{reads: [][]service.Post{{post("other")}}}
	c := Wrap(f, "agent1", ReadYourWrites)
	if err := c.Write(simnet.Oregon, post("mine")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"other", "mine"}) {
		t.Fatalf("read = %v, want own write replayed", idsOf(got))
	}
}

func TestRYWNotMaskedWithoutGuarantee(t *testing.T) {
	f := &fakeService{reads: [][]service.Post{{}}}
	c := Wrap(f, "agent1", MonotonicReads)
	if err := c.Write(simnet.Oregon, post("mine")); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Read(simnet.Oregon, "agent1")
	if len(got) != 0 {
		t.Fatalf("read = %v, want unmasked", idsOf(got))
	}
}

func TestMRMaskingReplaysSeenWrites(t *testing.T) {
	f := &fakeService{reads: [][]service.Post{
		{post("m1"), post("m2")},
		{post("m2")}, // m1 vanished
	}}
	c := Wrap(f, "agent1", MonotonicReads)
	if _, err := c.Read(simnet.Oregon, "agent1"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"m2", "m1"}) {
		t.Fatalf("read = %v, want m1 replayed", idsOf(got))
	}
}

func TestMWMaskingReordersOwnWrites(t *testing.T) {
	f := &fakeService{reads: [][]service.Post{
		{post("m2"), post("x"), post("m1")}, // own pair reversed
	}}
	c := Wrap(f, "agent1", MonotonicWrites)
	if err := c.Write(simnet.Oregon, post("m1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(simnet.Oregon, post("m2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	// Own writes restored to issue order in their original slots.
	if !eq(idsOf(got), []string{"m1", "x", "m2"}) {
		t.Fatalf("read = %v, want own pair reordered in place", idsOf(got))
	}
}

// A read's posts are shared and read-only (service.Service.Read): masking
// that drops and reorders them works on a copy.
func TestMaskingLeavesTheServicesPostsAlone(t *testing.T) {
	reply := post("reply")
	reply.DependsOn = "question"
	rendering := []service.Post{post("m2"), reply, post("x"), post("m1")}
	before := slices.Clone(rendering)
	f := &fakeService{reads: [][]service.Post{rendering}, shared: true}
	c := Wrap(f, "agent1", All)
	for _, id := range []string{"m1", "m2"} {
		if err := c.Write(simnet.Oregon, post(id)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"m1", "x", "m2"}) {
		t.Fatalf("read = %v, want the reply delayed and own writes in issue order", idsOf(got))
	}
	if !slices.Equal(rendering, before) {
		t.Fatalf("masking wrote to the service's posts: %v", idsOf(rendering))
	}
}

func TestMWMaskingLeavesForeignWritesAlone(t *testing.T) {
	f := &fakeService{reads: [][]service.Post{
		{post("b"), post("a")},
	}}
	c := Wrap(f, "agent1", All)
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"b", "a"}) {
		t.Fatalf("read = %v, foreign order must be preserved", idsOf(got))
	}
}

func TestWriteErrorNotCached(t *testing.T) {
	f := &fakeService{writeErr: errors.New("boom"), reads: [][]service.Post{{}}}
	c := Wrap(f, "agent1", All)
	if err := c.Write(simnet.Oregon, post("m1")); err == nil {
		t.Fatal("write error swallowed")
	}
	got, _ := c.Read(simnet.Oregon, "agent1")
	if len(got) != 0 {
		t.Fatalf("failed write replayed: %v", idsOf(got))
	}
}

func TestReadErrorPropagates(t *testing.T) {
	f := &fakeService{readErr: errors.New("boom")}
	c := Wrap(f, "agent1", All)
	if _, err := c.Read(simnet.Oregon, "agent1"); err == nil {
		t.Fatal("read error swallowed")
	}
}

func TestResetClearsSessionAndService(t *testing.T) {
	f := &fakeService{reads: [][]service.Post{{post("m1")}, {}}}
	c := Wrap(f, "agent1", All)
	if err := c.Write(simnet.Oregon, post("w1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(simnet.Oregon, "agent1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	if f.resets != 1 {
		t.Fatalf("service resets = %d, want 1", f.resets)
	}
	got, _ := c.Read(simnet.Oregon, "agent1")
	// After reset nothing is replayed: the (rewound) scripted read
	// returns m1 only.
	if !eq(idsOf(got), []string{"m1"}) {
		t.Fatalf("read after reset = %v", idsOf(got))
	}
}

func TestNameDelegates(t *testing.T) {
	c := Wrap(&fakeService{}, "agent1", All)
	if c.Name() != "fake" {
		t.Fatal("Name not delegated")
	}
}

func TestGuaranteesHas(t *testing.T) {
	if !All.Has(ReadYourWrites) || !All.Has(MonotonicReads|MonotonicWrites) {
		t.Fatal("All must include everything")
	}
	if ReadYourWrites.Has(MonotonicReads) {
		t.Fatal("RYW should not include MR")
	}
}

// TestMaskingEndToEnd runs the ablation the paper's discussion motivates:
// wrapping every agent in the session layer eliminates the maskable
// session-guarantee anomalies on the anomaly-heavy FBFeed profile.
func TestMaskingEndToEnd(t *testing.T) {
	const seeds = 3
	for seed := int64(0); seed < seeds; seed++ {
		wrap := func(ag probe.Agent, svc service.Service) service.Service {
			return Wrap(svc, ag.Label(), All)
		}
		res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
			Workload: probe.Workload{
				Service:    service.NameFBFeed,
				Test1Count: 2,
				Seed:       900 + seed,
				Wrap:       wrap,
			},
			Engine: probe.Engine{Lanes: 1},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.TracesOf(trace.Test1) {
			if vs := core.CheckReadYourWrites(tr); len(vs) != 0 {
				t.Fatalf("seed %d: RYW not masked: %d violations", seed, len(vs))
			}
			if vs := core.CheckMonotonicReads(tr); len(vs) != 0 {
				t.Fatalf("seed %d: MR not masked: %d violations", seed, len(vs))
			}
			// Monotonic writes: the reader can only fix pairs it wrote
			// itself; require that each agent's own reads never violate
			// MW for its own writes.
			for _, v := range core.CheckMonotonicWrites(tr) {
				w, ok := tr.WriteByID(v.Write)
				if ok && w.Agent == v.Agent {
					t.Fatalf("seed %d: own-write MW not masked: %+v", seed, v)
				}
			}
		}
	}
}

// TestMaskingReducesAnomalies compares masked and unmasked campaigns.
func TestMaskingReducesAnomalies(t *testing.T) {
	count := func(wrapped bool) int {
		var w probe.ClientWrapper
		if wrapped {
			w = func(ag probe.Agent, svc service.Service) service.Service {
				return Wrap(svc, ag.Label(), All)
			}
		}
		res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
			Workload: probe.Workload{
				Service:    service.NameFBFeed,
				Test1Count: 4,
				Seed:       42,
				Wrap:       w,
			},
			Engine: probe.Engine{Lanes: 1},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, tr := range res.Traces {
			total += len(core.CheckReadYourWrites(tr)) +
				len(core.CheckMonotonicReads(tr))
		}
		return total
	}
	raw, masked := count(false), count(true)
	if raw == 0 {
		t.Fatal("baseline shows no anomalies; test is vacuous")
	}
	if masked != 0 {
		t.Fatalf("masked campaign still has %d RYW+MR violations (baseline %d)", masked, raw)
	}
}

func TestWFRMaskingDelaysEffectWithoutCause(t *testing.T) {
	reply := post("reply")
	reply.DependsOn = "question"
	f := &fakeService{reads: [][]service.Post{
		{reply},                   // effect visible without its cause
		{post("question"), reply}, // cause arrives
	}}
	c := Wrap(f, "agent1", WritesFollowsReads)
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("uncaused reply delivered: %v", idsOf(got))
	}
	got, err = c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"question", "reply"}) {
		t.Fatalf("read = %v, want cause then effect", idsOf(got))
	}
}

func TestWFRMaskingAcceptsSeenOrOwnCause(t *testing.T) {
	reply := post("reply")
	reply.DependsOn = "question"
	f := &fakeService{reads: [][]service.Post{
		{post("question")}, // observe the cause first
		{reply},            // cause vanished but was seen: deliver
	}}
	c := Wrap(f, "agent1", WritesFollowsReads)
	if _, err := c.Read(simnet.Oregon, "agent1"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"reply"}) {
		t.Fatalf("read = %v, want reply delivered", idsOf(got))
	}

	// Own writes satisfy dependencies too.
	dep := post("mine-reply")
	dep.DependsOn = "mine"
	f2 := &fakeService{reads: [][]service.Post{{dep}}}
	c2 := Wrap(f2, "agent1", WritesFollowsReads)
	if err := c2.Write(simnet.Oregon, post("mine")); err != nil {
		t.Fatal(err)
	}
	got, err = c2.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(idsOf(got), []string{"mine-reply"}) {
		t.Fatalf("read = %v, want own-caused reply", idsOf(got))
	}
}

func TestWFRMaskingDelaysChains(t *testing.T) {
	b := post("b")
	b.DependsOn = "a"
	cpost := post("c")
	cpost.DependsOn = "b"
	f := &fakeService{reads: [][]service.Post{{cpost, b}}} // a missing
	cl := Wrap(f, "agent1", WritesFollowsReads)
	got, err := cl.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("chain not fully delayed: %v", idsOf(got))
	}
}

func TestWFRMaskingEndToEnd(t *testing.T) {
	wrap := func(ag probe.Agent, svc service.Service) service.Service {
		return Wrap(svc, ag.Label(), All)
	}
	for seed := int64(0); seed < 3; seed++ {
		res, err := probe.SimulateConcurrent(context.Background(), probe.Options{
			Workload: probe.Workload{
				Service:    service.NameFBFeed,
				Test1Count: 3,
				Seed:       700 + seed,
				Wrap:       wrap,
			},
			Engine: probe.Engine{Lanes: 1},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range res.Traces {
			if vs := core.CheckWritesFollowsReads(tr); len(vs) != 0 {
				t.Fatalf("seed %d: WFR not masked: %+v", seed, vs[0])
			}
		}
	}
}

func TestClientConcurrentUse(t *testing.T) {
	// The session client guards shared caches; concurrent reads and
	// writes must be race-free (run under -race).
	f := &fakeService{reads: make([][]service.Post, 200)}
	for i := range f.reads {
		f.reads[i] = []service.Post{post("m1"), post("m2")}
	}
	c := Wrap(f, "agent1", All)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					_, _ = c.Read(simnet.Oregon, "agent1")
				} else {
					_ = c.Write(simnet.Oregon, post(fmt.Sprintf("w%d-%d", g, i)))
				}
			}
		}()
	}
	wg.Wait()
}

func TestCacheLimitEvictsOldest(t *testing.T) {
	f := &fakeService{reads: [][]service.Post{
		{post("m1")}, {post("m2")}, {post("m3")},
		{}, // everything vanished
	}}
	c := Wrap(f, "agent1", MonotonicReads, WithCacheLimit(2))
	for i := 0; i < 3; i++ {
		if _, err := c.Read(simnet.Oregon, "agent1"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Read(simnet.Oregon, "agent1")
	if err != nil {
		t.Fatal(err)
	}
	// Only the two newest observations can be replayed; m1 was evicted.
	if !eq(idsOf(got), []string{"m2", "m3"}) {
		t.Fatalf("read = %v, want replay of newest two", idsOf(got))
	}
}
