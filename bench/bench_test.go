package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"conprobe/internal/diskfault"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile([]float64{10, 20}, 50); got != 15 {
		t.Errorf("p50 of two = %v, want the midpoint 15", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90); got != 10 {
		t.Errorf("p90 of 1..11 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
	// The median of five windows ignores one window a neighbour ruined.
	if got := median([]float64{100, 101, 99, 100, 40}); got != 100 {
		t.Errorf("median of windows = %v, want 100", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{30, 50},   // nothing qualifies
		{40, 75},   // 10 of 40 lie beyond p75
		{100, 90},  // 10 of 100 beyond p90
		{999, 98},  // 9.99 beyond p99 is not ten
		{1000, 99}, // exactly ten beyond p99
		{100000, 99.99},
	} {
		pct, val := tail(sample(tc.n))
		if pct != tc.want {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, pct, tc.want)
		}
		if beyond := float64(tc.n) * (100 - pct) / 100; pct != 50 && beyond < 10 {
			t.Errorf("n=%d: only %.1f samples beyond p%v", tc.n, beyond, pct)
		}
		if math.IsNaN(val) {
			t.Errorf("n=%d: NaN", tc.n)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: 10..60 covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "leaf", Start: 15, End: 20, Parent: 1},
		{Name: "orphan", Start: 5, End: 9, Parent: 99},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	sums := summarize(spans)
	if s := sums["root"]; s.Count != 1 || s.Total != 100 || s.Self != 40 {
		t.Errorf("root summary %+v", *s)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	var none *recorder
	none.end(none.begin("x", -1, 0)) // a nil recorder is the untraced run
	r := newRecorder()
	if id := r.begin("x", -1, 0); id != -1 {
		t.Errorf("recorder off returned span %d", id)
	}
	r.on.Store(true)
	id := r.begin("x", -1, 7)
	r.end(id)
	if s := r.snapshot(); len(s) != 1 || s[0].Req != 7 || s[0].End < s[0].Start {
		t.Errorf("spans %+v", s)
	}
}

func TestCountFSCountsAndDiscardsUnsynced(t *testing.T) {
	dir := t.TempDir()
	fs := newCountFS("wal", nil, nil)
	path := filepath.Join(dir, "log")
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	write := func(n int) {
		t.Helper()
		if _, err := f.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	write(100)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	write(30)
	write(12)
	if got := fs.snapshot(); got.Writes != 3 || got.Bytes != 142 || got.Syncs != 1 {
		t.Errorf("counts %+v, want 3 writes, 142 bytes, 1 sync", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A file written and never synced keeps nothing; a renamed file keeps
	// what it had synced under its old name.
	tmp := filepath.Join(dir, "snap.tmp")
	g, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	g.Close()
	snap := filepath.Join(dir, "snap")
	if err := fs.Rename(tmp, snap); err != nil {
		t.Fatal(err)
	}
	never := filepath.Join(dir, "never")
	h, err := fs.OpenFile(never, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(make([]byte, 9)); err != nil {
		t.Fatal(err)
	}
	h.Close()

	if err := fs.discardUnsynced(); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]int64{path: 100, snap: 50, never: 0} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != want {
			t.Errorf("%s is %d bytes after the power cut, want %d", filepath.Base(p), st.Size(), want)
		}
	}
	var _ diskfault.FS = fs
}

func TestSameSeedSameOps(t *testing.T) {
	a, b := genPosts(7, "node", 64), genPosts(7, "node", 64)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed and stream gave different posts")
	}
	if reflect.DeepEqual(a, genPosts(8, "node", 64)) {
		t.Error("another seed gave the same posts")
	}
	ids := make(map[string]bool)
	for _, p := range append(a, genPosts(7, "c0", 64)...) {
		if ids[p.ID] {
			t.Fatalf("post ID %s is used twice", p.ID)
		}
		ids[p.ID] = true
		if len(p.Body) < 96 || len(p.Body) >= 160 {
			t.Fatalf("body of %d bytes", len(p.Body))
		}
	}
}

func TestWorsening(t *testing.T) {
	higher := endToEndDef{Better: "higher"}
	lower := endToEndDef{Better: "lower"}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("a rate falling 100 to 90 is worse by %v, want 0.10", got)
	}
	if got := worsening(lower, 100, 90); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("a latency falling 100 to 90 is worse by %v, want -0.10", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []endToEndDef `json:"end_to_end"`
	PerLayer []layerDef    `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end\n%v\nthe program has\n%v", b.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(b.PerLayer, layerDefs) {
		t.Errorf("per_layer differs from layerDefs")
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkPrinted holds one run's figures to a list of definitions: every
// name printed exactly once, well-formed, with its unit.
func checkPrinted(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	seen := make(map[string]int)
	for _, n := range res.Metrics.order {
		seen[n]++
	}
	for name, unit := range want {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: malformed name", name)
		}
		if seen[name] != 1 {
			t.Errorf("%s: %s printed %d times, want once", res.Workload, name, seen[name])
		}
		if got := res.Metrics.byName[name].Unit; got != unit || unit == "" {
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, name, got, unit)
		}
	}
	for name := range seen {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s is printed and not listed in BENCHMARK.json", res.Workload, name)
		}
	}
}

func smokeEnv(t *testing.T) *env {
	return &env{seed: 3, seconds: 1, p: 2, dir: t.TempDir(), smoke: true}
}

func TestSmokeEndToEnd(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := make(map[string]string)
	for _, d := range b.EndToEnd {
		want[d.Name] = d.Unit
	}
	for _, name := range workloadNames {
		e := smokeEnv(t)
		res, err := runEndToEnd(name, e)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Problems) > 0 || res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s: problems %v, %d of %d failed", name, res.Problems, res.Failed, res.Attempted)
		}
		checkPrinted(t, res, want)
		for n, m := range res.Metrics.byName {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric must never be zero", name, n, m.Value)
			}
		}
		if left, _ := os.ReadDir(e.dir); len(left) > 0 {
			t.Errorf("%s left %d entries under -dir", name, len(left))
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two clusters at the shipped election timers")
	}
	b := readBenchmarkJSON(t)
	want := make(map[string]string)
	for _, d := range b.PerLayer {
		want[d.Name] = d.Unit
	}
	e := smokeEnv(t)
	start := time.Now()
	res, err := runTraced("cluster_3node", e)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("traced smoke took %v", time.Since(start))
	if len(res.Problems) > 0 {
		t.Errorf("problems %v", res.Problems)
	}
	checkPrinted(t, res, want)
	if _, err := os.Stat(filepath.Join(e.dir, "cluster_3node.spans.jsonl")); err != nil {
		t.Error(err)
	}
	if len(res.Spans) == 0 {
		t.Error("no spans recorded")
	}
	// The three fault spans partition the outage.
	m := res.Metrics.byName
	sum := m["cluster.detect_ms_p50"].Value + m["cluster.elect_ms_p50"].Value + m["cluster.first_ack_ms_p50"].Value
	if out := m["client.outage_ms_p50"].Value; out <= 0 || math.Abs(sum-out) > 0.1*out {
		t.Errorf("detect+elect+first_ack = %.1f ms, outage = %.1f ms", sum, out)
	}
}
