package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conprobe"
	"conprobe/internal/checkpoint"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// testWatch observes a campaign from outside through the two hooks the
// public API offers: Workload.Wrap, whose wrapper sees every test begin
// (service.TestScoped) and every service call, and Engine.OnTrace, which
// sees every test end. A test's latency is the wall time between the
// two. Only Test 2 instances are sampled: a campaign is half Test 1
// (a fraction of a millisecond) and half Test 2 (several), so the median
// of both together sits on the cliff between the two modes and moves
// with a handful of tests.
type testWatch struct {
	rec *recorder
	// run is the span of the conprobe.Run call the tests belong to.
	run int

	mu    sync.Mutex
	start map[int]time.Time
	spans map[int]int
	lat   []time.Duration
	done  int
	// calls counts service calls while traced (service.calls_per_test).
	calls atomic.Int64
}

func newTestWatch(rec *recorder) *testWatch {
	return &testWatch{rec: rec, run: -1, start: make(map[int]time.Time), spans: make(map[int]int)}
}

func (t *testWatch) wrap(_ conprobe.Agent, svc conprobe.Service) conprobe.Service {
	return &watchedSvc{Service: svc, t: t}
}

// begin notes a test's start; every agent's wrapper reports it, the
// first one wins.
func (t *testWatch) begin(id int) {
	t.mu.Lock()
	if _, ok := t.start[id]; !ok {
		t.start[id] = time.Now()
		if t.rec != nil {
			t.spans[id] = t.rec.begin("probe.test", t.run, uint64(id))
		}
	}
	t.mu.Unlock()
}

// onTrace notes a test's end. The engine serializes the calls.
func (t *testWatch) onTrace(tr *conprobe.TestTrace) error {
	now := time.Now()
	t.mu.Lock()
	if s, ok := t.start[tr.TestID]; ok {
		if tr.Kind == conprobe.Test2 {
			t.lat = append(t.lat, now.Sub(s))
		}
		delete(t.start, tr.TestID)
	}
	if id, ok := t.spans[tr.TestID]; ok {
		t.rec.end(id)
		delete(t.spans, tr.TestID)
	}
	t.done++
	t.mu.Unlock()
	return nil
}

func (t *testWatch) spanOf(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.spans[id]; ok {
		return s
	}
	return -1
}

// watchedSvc is one agent's handle. It keeps no per-test state of the
// service's, so Reset has nothing to clear and forwards nothing: the
// runner has already reset the service itself.
type watchedSvc struct {
	service.Service
	t   *testWatch
	cur int
}

func (w *watchedSvc) BeginTest(id int) {
	w.cur = id
	w.t.begin(id)
	if ts, ok := w.Service.(service.TestScoped); ok {
		ts.BeginTest(id)
	}
}

func (w *watchedSvc) Reset() error { return nil }

func (w *watchedSvc) Write(from simnet.Site, p service.Post) error {
	if w.t.rec == nil {
		return w.Service.Write(from, p)
	}
	w.t.calls.Add(1)
	id := w.t.rec.begin("service.write", w.t.spanOf(w.cur), uint64(w.cur))
	err := w.Service.Write(from, p)
	w.t.rec.end(id)
	return err
}

func (w *watchedSvc) Read(from simnet.Site, reader string) ([]service.Post, error) {
	if w.t.rec == nil {
		return w.Service.Read(from, reader)
	}
	w.t.calls.Add(1)
	id := w.t.rec.begin("service.read", w.t.spanOf(w.cur), uint64(w.cur))
	posts, err := w.Service.Read(from, reader)
	w.t.rec.end(id)
	return posts, err
}

// callsPerTest is what the campaign workloads themselves observe of a
// layer: the exact number of service calls a test makes, counted by the
// wrapper while traced.
type callsPerTest struct {
	calls int64
	tests int
}

func (c *callsPerTest) add(tw *testWatch) {
	c.calls += tw.calls.Load()
	c.tests += tw.done
}

func (c *callsPerTest) layers(_ *env, m *metrics) error {
	if c.calls > 0 {
		m.set("service.calls_per_test", float64(c.calls)/float64(c.tests), "count", c.tests)
	}
	return nil
}

// reportDigest fingerprints a report by its rendered text, the same
// bytes a user would diff.
func reportDigest(rep *conprobe.Report) (string, error) {
	h := sha256.New()
	if err := conprobe.WriteReport(h, rep); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// violations counts the tests of a report that showed any of the six
// anomalies.
func violations(rep *conprobe.Report) int {
	n := 0
	for _, s := range rep.Session {
		n += s.TestsWithAnomaly
	}
	for _, d := range rep.Divergence {
		n += d.TestsWithAnomaly
	}
	return n
}

// campaignSim is the paper-shaped campaign: one window runs every
// built-in profile once, in memory, with traces discarded.
type campaignSim struct {
	perKind int
	// digests and violated are the first window's, by profile; every
	// later window must reproduce the digests.
	digests  map[string]string
	violated map[string]int
	problems []string
	callsPerTest
}

func (c *campaignSim) setup(e *env) error {
	c.perKind = e.scale(16, 2)
	c.digests = make(map[string]string)
	c.violated = make(map[string]int)
	_, err := c.window(e)
	return err
}

func (c *campaignSim) window(e *env) (windowResult, error) {
	var wr windowResult
	t0 := time.Now()
	for _, name := range conprobe.ProfileNames() {
		tw := newTestWatch(e.rec)
		run := e.rec.begin("probe.run", -1, 0)
		tw.run = run
		res, err := conprobe.Run(context.Background(), conprobe.Options{
			Workload: conprobe.Workload{
				Service: name, Test1Count: c.perKind, Test2Count: c.perKind,
				Seed: e.seed, Wrap: tw.wrap,
			},
			Engine: conprobe.Engine{Parallelism: e.p, DiscardTraces: true, OnTrace: tw.onTrace},
		})
		e.rec.end(run)
		if err != nil {
			return wr, fmt.Errorf("profile %s: %w", name, err)
		}
		want := 2 * c.perKind
		wr.attempted += want
		wr.ops += tw.done
		wr.failed += want - tw.done
		wr.lat = append(wr.lat, tw.lat...)
		c.callsPerTest.add(tw)
		digest, err := reportDigest(res.Report)
		if err != nil {
			return wr, err
		}
		if first, ok := c.digests[name]; !ok {
			c.digests[name] = digest
			c.violated[name] = violations(res.Report)
		} else if first != digest {
			c.problems = append(c.problems, fmt.Sprintf("%s: report digest %s differs from the first window's %s", name, digest[:12], first[:12]))
		}
	}
	wr.elapsed = time.Since(t0)
	return wr, nil
}

// check holds the run to the paper's headline contrast: Blogger shows
// none of the six anomalies, Google+ and Facebook Group show some.
func (c *campaignSim) check(e *env) error {
	problems := c.problems
	if n := c.violated[conprobe.ServiceBlogger]; n != 0 {
		problems = append(problems, fmt.Sprintf("blogger shows %d tests with anomalies, want none", n))
	}
	if !e.smoke {
		// A handful of tests can miss a rare anomaly; a full window cannot.
		for _, name := range []string{conprobe.ServiceGooglePlus, conprobe.ServiceFBGroup} {
			if c.violated[name] == 0 {
				problems = append(problems, name+" shows no anomaly at all")
			}
		}
	}
	if len(problems) > 0 {
		return errors.New(joinProblems(problems))
	}
	return nil
}

func (c *campaignSim) teardown() {}

// campaignJournal is the same engine used the other way round: one
// profile, every trace kept, journaled to a checkpoint with one fsync
// per test and streamed to a JSONL file.
type campaignJournal struct {
	perKind int
	dir     string
	n       int
	fs      *countFS
	// last* describe the most recent window's files, kept for check.
	lastJournal, lastTraces string
	lastDigest              string
	callsPerTest
}

func (c *campaignJournal) setup(e *env) error {
	c.perKind = e.scale(20, 2)
	dir, err := e.mkdir("journal")
	if err != nil {
		return err
	}
	c.dir = dir
	if e.rec != nil {
		c.fs = newCountFS("checkpoint", e.rec, nil)
	}
	_, err = c.window(e)
	return err
}

func (c *campaignJournal) window(e *env) (wr windowResult, err error) {
	for _, old := range []string{c.lastJournal, c.lastTraces} {
		if old != "" {
			_ = os.Remove(old) // the previous window's files have been checked
		}
	}
	c.n++
	c.lastJournal = filepath.Join(c.dir, fmt.Sprintf("campaign-%d.ckpt", c.n))
	c.lastTraces = filepath.Join(c.dir, fmt.Sprintf("traces-%d.jsonl", c.n))

	t0 := time.Now()
	f, err := os.Create(c.lastTraces)
	if err != nil {
		return wr, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	tw := newTestWatch(e.rec)
	out := conprobe.NewTraceWriter(bw)
	opts := c.options(e, tw)
	opts.Engine.OnTrace = func(tr *conprobe.TestTrace) error {
		id := e.rec.begin("trace.encode", tw.spanOf(tr.TestID), uint64(tr.TestID))
		werr := out.Write(tr)
		e.rec.end(id)
		if werr != nil {
			return werr
		}
		return tw.onTrace(tr)
	}
	opts.Durability = conprobe.Durability{Checkpoint: c.lastJournal}
	if c.fs != nil {
		opts.Durability.FS = c.fs
	}
	run := e.rec.begin("probe.run", -1, 0)
	tw.run = run
	res, err := conprobe.Run(context.Background(), opts)
	e.rec.end(run)
	if err != nil {
		return wr, err
	}
	if err := out.Flush(); err != nil {
		return wr, err
	}
	if err := bw.Flush(); err != nil {
		return wr, err
	}
	wr.elapsed = time.Since(t0)

	if len(res.Warnings) > 0 {
		return wr, fmt.Errorf("campaign warned: %v", res.Warnings)
	}
	want := 2 * c.perKind
	wr.attempted, wr.ops, wr.failed = want, tw.done, want-tw.done
	wr.lat = tw.lat
	c.callsPerTest.add(tw)
	c.lastDigest, err = reportDigest(res.Report)
	return wr, err
}

func (c *campaignJournal) options(e *env, tw *testWatch) conprobe.Options {
	return conprobe.Options{
		Workload: conprobe.Workload{
			Service: conprobe.ServiceFBGroup, Test1Count: c.perKind, Test2Count: c.perKind,
			Seed: e.seed, Wrap: tw.wrap,
		},
		Engine: conprobe.Engine{Parallelism: e.p},
	}
}

// check re-reads what the last window wrote and compares its report
// with a run of the same seed that journals nothing.
func (c *campaignJournal) check(e *env) error {
	var problems []string
	want := 2 * c.perKind
	st, err := checkpoint.Load(c.lastJournal)
	if err != nil {
		return fmt.Errorf("loading the journal: %w", err)
	}
	done := 0
	for _, lr := range st.Lanes {
		done += len(lr.Done)
	}
	if done != want || len(st.CompletedTraces()) != want {
		problems = append(problems, fmt.Sprintf("journal lists %d tests and %d traces, want %d of each", done, len(st.CompletedTraces()), want))
	}
	f, err := os.Open(c.lastTraces)
	if err != nil {
		return err
	}
	traces, err := conprobe.NewTraceReader(f).ReadAll()
	f.Close()
	if err != nil {
		return fmt.Errorf("re-reading the trace file: %w", err)
	}
	if len(traces) != want {
		problems = append(problems, fmt.Sprintf("trace file re-reads to %d traces, want %d", len(traces), want))
	}
	opts := c.options(e, newTestWatch(nil))
	opts.Engine.DiscardTraces = true
	res, err := conprobe.Run(context.Background(), opts)
	if err != nil {
		return fmt.Errorf("reference run without a journal: %w", err)
	}
	ref, err := reportDigest(res.Report)
	if err != nil {
		return err
	}
	if ref != c.lastDigest {
		problems = append(problems, fmt.Sprintf("journaled report digest %s differs from the unjournaled run's %s", c.lastDigest[:12], ref[:12]))
	}
	if len(problems) > 0 {
		return errors.New(joinProblems(problems))
	}
	return nil
}

func (c *campaignJournal) teardown() {
	if c.dir != "" {
		_ = os.RemoveAll(c.dir)
	}
}

func joinProblems(ps []string) string { return strings.Join(ps, "; ") }
