package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// windows is how many timed windows of identical work an untraced run
// makes; every timing it reports is the median over them.
const windows = 5

// setups is how many times an untraced run builds the system from
// scratch; setup_s is the median.
const setups = 3

// failPenalty is the latency a failed or refused operation is given: it
// misses every latency limit, so it must sit beyond any time-out the
// program has (the client's is 30 s).
const failPenalty = 60 * time.Second

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics keeps figures in the order they were set, for printing.
type metrics struct {
	byName map[string]metric
	order  []string
}

func newMetrics() *metrics { return &metrics{byName: make(map[string]metric)} }

func (m *metrics) set(name string, value float64, unit string, samples int) {
	if _, ok := m.byName[name]; !ok {
		m.order = append(m.order, name)
	}
	m.byName[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// env is what a run hands every workload.
type env struct {
	// seed fixes every generated input.
	seed int64
	// seconds is the nominal measuring time of the five windows together;
	// a workload sizes one window's work (or its duration) from it.
	seconds int
	// p is the number of load goroutines/connections, min(nproc, 2), and
	// the value GOMAXPROCS is pinned to.
	p int
	// dir is where data directories are created; each is removed on exit.
	dir string
	// rec is the span recorder of a traced run, nil otherwise.
	rec *recorder
	// smoke shrinks every size to the minimum that still exercises the
	// code, for the benchmark's own tests.
	smoke bool
}

// scale returns perSecond × seconds, or the floor in a smoke run.
func (e *env) scale(perSecond, floor int) int {
	if e.smoke {
		return floor
	}
	return perSecond * e.seconds
}

// count returns full, or floor in a smoke run: the size of a probe that
// does not scale with -seconds.
func (e *env) count(full, floor int) int {
	if e.smoke {
		return floor
	}
	return full
}

// mkdir creates a fresh data directory under e.dir.
func (e *env) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix+"-*")
}

// windowResult is what one timed window did.
type windowResult struct {
	// ops completed (the client.ops_per_s numerator) out of attempted;
	// failed ones carry no latency sample and count against every latency
	// figure.
	ops, attempted, failed int
	// elapsed is the timed part of the window.
	elapsed time.Duration
	// lat holds one sample per completed primary operation
	// (client.op_ms_*).
	lat []time.Duration
}

// workload is one of the four benchmark workloads. setup builds the
// system, preloads it and runs a warm-up of one full window; window does
// one window of identical work; check runs the correctness checks after
// the last window; teardown stops everything and removes the data.
type workload interface {
	setup(e *env) error
	window(e *env) (windowResult, error)
	check(e *env) error
	teardown()
	// layers adds the per-layer figures the workload itself observed in
	// its traced window (and extra traced-only phases) to m.
	layers(e *env, m *metrics) error
}

// workloadNames lists the workloads in the order a full run makes them.
var workloadNames = []string{"campaign_sim", "campaign_journal", "node_rw", "cluster_3node"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "campaign_sim":
		return &campaignSim{}, nil
	case "campaign_journal":
		return &campaignJournal{}, nil
	case "node_rw":
		return &nodeRW{}, nil
	case "cluster_3node":
		return &cluster3{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// result is the outcome of one run of one workload.
type result struct {
	Workload          string
	Attempted, Failed int
	// Problems lists every correctness check that failed; empty means
	// correct.
	Problems []string
	Metrics  *metrics
	Wall     time.Duration
	// Info holds the wall-clock figures of an untraced run. They are
	// printed and recorded but not gated: on a shared host they move by a
	// quarter from one minute to the next with nothing changed.
	Info *metrics
	// Spans and SpanFile are set by a traced run.
	Spans    map[string]*spanSummary
	SpanFile string
}

// measured is one window's derived figures.
type measured struct {
	windowResult
	// allocKB and allocs are the heap bytes and heap objects the whole
	// process allocated during the window, load generator included.
	allocKB, allocs float64
}

// timedWindow runs one window between two heap readings. The collection
// before it is untimed, so a window never pays for its predecessor's
// garbage.
func timedWindow(w workload, e *env) (measured, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wr, err := w.window(e)
	runtime.ReadMemStats(&after)
	return measured{
		windowResult: wr,
		allocKB:      float64(after.TotalAlloc-before.TotalAlloc) / 1024,
		allocs:       float64(after.Mallocs - before.Mallocs),
	}, err
}

// runEndToEnd makes the untraced run: the set-up several times, then the
// timed windows, then the checks.
func runEndToEnd(name string, e *env) (*result, error) {
	start := time.Now()
	res := &result{Workload: name, Metrics: newMetrics(), Info: newMetrics()}
	nSetups, nWindows := setups, windows
	if e.smoke {
		nSetups, nWindows = 1, 1
	}
	var w workload
	var setupS []float64
	for i := 0; i < nSetups; i++ {
		if w != nil {
			w.teardown()
		}
		var err error
		if w, err = newWorkload(name); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer w.teardown()

	var ws []measured
	for k := 0; k < nWindows; k++ {
		m, err := timedWindow(w, e)
		if err != nil {
			return nil, fmt.Errorf("%s: window %d: %w", name, k+1, err)
		}
		res.Attempted += m.attempted
		res.Failed += m.failed
		ws = append(ws, m)
	}
	if err := w.check(e); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	res.Metrics.set("setup_s", median(setupS), "s", len(setupS))
	if !reportWindows(ws, res.Metrics, res.Info) {
		res.Problems = append(res.Problems, "no operation completed")
	}
	res.Wall = time.Since(start)
	return res, nil
}

// reportWindows reduces a run's windows to its figures: the two
// allocation metrics into gated (they repeat to a fraction of a per
// cent whatever the host is doing), the wall-clock ones into timed.
// Every figure is the median over the windows, latencies over all their
// samples. It reports whether any operation completed.
func reportWindows(ws []measured, gated, timed *metrics) bool {
	var rate, kb, objs, lat []float64
	for _, m := range ws {
		if m.ops > 0 {
			rate = append(rate, float64(m.ops)/m.elapsed.Seconds())
			kb = append(kb, m.allocKB/float64(m.ops))
			objs = append(objs, m.allocs/float64(m.ops))
		}
		lat = append(lat, durations(m.lat, ms)...)
		for i := 0; i < m.failed; i++ {
			lat = append(lat, ms(failPenalty))
		}
	}
	if len(rate) == 0 || len(lat) == 0 {
		return false
	}
	gated.set("alloc_kb_per_op", median(kb), "KB", len(kb))
	gated.set("allocs_per_op", median(objs), "count", len(objs))
	timed.set("client.ops_per_s", median(rate), "1/s", len(rate))
	timed.set("client.op_ms_p50", percentile(lat, 50), "ms", len(lat))
	timed.set("client.op_ms_p90", percentile(lat, 90), "ms", len(lat))
	// The tail is the highest percentile with ten samples beyond it.
	pct, val := tail(lat)
	timed.set("client.op_ms_ptail", val, "ms", len(lat))
	timed.set("client.op_ptail_pct", pct, "pct", len(lat))
	return true
}
