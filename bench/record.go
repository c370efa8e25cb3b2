package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEndDef names one end-to-end metric with the share of the
// reference median by which it may worsen before that counts as a
// regression. BENCHMARK.json carries the same table.
type endToEndDef struct {
	Name, Unit, Better string
	Bound              float64
}

var endToEndDefs = []endToEndDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
}

// comparedDefs adds the wall-clock figures of an untraced run, which
// are compared and printed beside the gated ones but, having no bound,
// never fail a comparison.
var comparedDefs = append(append([]endToEndDef(nil), endToEndDefs...),
	endToEndDef{"client.ops_per_s", "1/s", "higher", 0},
	endToEndDef{"client.op_ms_p50", "ms", "lower", 0},
	endToEndDef{"client.op_ms_p90", "ms", "lower", 0},
)

// recordSchema is bumped whenever a record's fields change meaning.
const recordSchema = 1

// record is one run of one workload, appended to the -out file as one
// compact JSON line.
type record struct {
	Schema     int               `json:"schema"`
	Time       string            `json:"time"`
	GitSHA     string            `json:"git_sha"`
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Clients    int               `json:"clients"`
	GoVersion  string            `json:"go_version"`
	FSType     string            `json:"fs_type"`
	FsyncUsP50 float64           `json:"host_fsync_us_p50"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	WallS      float64           `json:"wall_s"`
	Metrics    map[string]metric `json:"metrics"`
}

// fingerprint is what must match before two records may be compared:
// figures from different hosts differ for reasons no change explains.
func (r record) fingerprint() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s fs=%s", r.NProc, r.GOMAXPROCS, r.GoVersion, r.FSType)
}

// gitSHA names the commit measured; a checkout that is not a git
// repository (the driver's) has none.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// appendRecord appends res to the JSONL file at path.
func appendRecord(path string, res *result, e *env, traced bool) (err error) {
	m := newMetrics()
	if err := probeHost(e, e.dir, m); err != nil {
		return err
	}
	rec := record{
		Schema: recordSchema, Time: time.Now().UTC().Format(time.RFC3339), GitSHA: gitSHA(),
		Workload: res.Workload, Traced: traced, Seed: e.seed, Seconds: e.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: e.p,
		GoVersion: runtime.Version(), FSType: fsType(e.dir),
		FsyncUsP50: m.byName["host.fsync_us_p50"].Value,
		Correct:    len(res.Problems) == 0, Attempted: res.Attempted, Failed: res.Failed,
		WallS: res.Wall.Seconds(), Metrics: make(map[string]metric),
	}
	for _, ms := range []*metrics{res.Metrics, res.Info} {
		if ms != nil {
			for n, v := range ms.byName {
				rec.Metrics[n] = v
			}
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(line, '\n'))
	return err
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s line %d: schema %d, this build reads %d", path, line, r.Schema, recordSchema)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// worsening returns by what share of ref the value cur is worse, in the
// metric's own direction; negative means better.
func worsening(d endToEndDef, ref, cur float64) float64 {
	if ref == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (ref - cur) / ref
	}
	return (cur - ref) / ref
}

// series collects, per workload and end-to-end metric, the values of the
// untraced records in file order.
func series(recs []record) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, r := range recs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for _, d := range comparedDefs {
			if m, ok := r.Metrics[d.Name]; ok {
				out[r.Workload][d.Name] = append(out[r.Workload][d.Name], m.Value)
			}
		}
	}
	return out
}

// compareSets prints, per workload and end-to-end metric, both sets'
// trajectories and medians, the worsening of b against a and the bound,
// and reports whether every worsening stays within its bound.
func compareSets(w io.Writer, a, b map[string]map[string][]float64, aName, bName string) bool {
	ok := true
	fmt.Fprintf(w, "| workload | metric | %s median | %s median | worse by | bound | verdict |\n|---|---|---|---|---|---|---|\n", aName, bName)
	var trajectories []string
	for _, wl := range workloadNames {
		for _, d := range comparedDefs {
			av, bv := a[wl][d.Name], b[wl][d.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(append([]float64(nil), av...)), median(append([]float64(nil), bv...))
			worse := worsening(d, am, bm)
			bound, verdict := fmt.Sprintf("%.0f%%", 100*d.Bound), "ok"
			switch {
			case d.Bound == 0:
				bound, verdict = "none", "not gated"
			case worse > d.Bound:
				verdict = "WORSE"
				ok = false
			}
			fmt.Fprintf(w, "| %s | %s (%s) | %.4f | %.4f | %+.1f%% | %s | %s |\n", wl, d.Name, d.Unit, am, bm, 100*worse, bound, verdict)
			trajectories = append(trajectories, fmt.Sprintf("%s %s: %s %s -> %s %s", wl, d.Name, aName, formatValues(av), bName, formatValues(bv)))
		}
	}
	fmt.Fprintln(w)
	for _, t := range trajectories {
		fmt.Fprintln(w, t)
	}
	return ok
}

func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// compareFiles is -compare: it refuses records from different hosts and
// fails on a worsening beyond a metric's bound.
func compareFiles(w io.Writer, aPath, bPath string) error {
	a, err := readRecords(aPath)
	if err != nil {
		return err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return err
	}
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("nothing to compare: %d records in %s, %d in %s", len(a), aPath, len(b), bPath)
	}
	prints := make(map[string]bool)
	for _, r := range append(append([]record(nil), a...), b...) {
		prints[r.fingerprint()] = true
	}
	if len(prints) > 1 {
		var all []string
		for p := range prints {
			all = append(all, p)
		}
		sort.Strings(all)
		return fmt.Errorf("records come from different hosts and cannot be compared:\n  %s", strings.Join(all, "\n  "))
	}
	fmt.Fprintf(w, "host: %s\n%s: commit %s, %d records\n%s: commit %s, %d records\n\n", a[0].fingerprint(), aPath, a[0].GitSHA, len(a), bPath, b[0].GitSHA, len(b))
	if !compareSets(w, series(a), series(b), "a", "b") {
		return fmt.Errorf("%s is worse than %s beyond a bound", bPath, aPath)
	}
	return nil
}

// selfcheckRuns is how many runs of the suite each of the two sets gets.
const selfcheckRuns = 3

// selfcheck is -selfcheck: the same build measured as two interleaved
// sets, A B A B, each run in a process of its own as the driver's are.
// Two sets of one program must agree within the bounds; where they do
// not, the benchmark is too noisy to judge a change by.
func selfcheck(w io.Writer, e *env) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := os.CreateTemp(e.dir, "selfcheck-*.jsonl")
	if err != nil {
		return err
	}
	out.Close()
	defer os.Remove(out.Name())
	var sets [2][]record
	for run := 0; run < 2*selfcheckRuns; run++ {
		if err := os.Truncate(out.Name(), 0); err != nil {
			return err
		}
		cmd := exec.Command(exe, "-seed", fmt.Sprint(e.seed), "-seconds", fmt.Sprint(e.seconds), "-dir", e.dir, "-out", out.Name())
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d of the suite: %w", run+1, err)
		}
		recs, err := readRecords(out.Name())
		if err != nil {
			return err
		}
		sets[run%2] = append(sets[run%2], recs...)
		fmt.Fprintf(os.Stderr, "selfcheck: run %d of %d done (set %c)\n", run+1, 2*selfcheckRuns, 'A'+rune(run%2))
	}
	first := sets[0][0]
	fmt.Fprintf(w, "# Noise self-check\n\nThe untraced suite, one build, run %d times as alternating sets A and B (seed %d, %d s per run), each run in its own process. Commit %s on %s, %s.\n\n",
		2*selfcheckRuns, e.seed, e.seconds, first.GitSHA, first.fingerprint(), first.Time)
	fmt.Fprintf(w, "host.fsync_us_p50 across the runs: %s\n\n", formatValues(fsyncs(sets[0], sets[1])))
	if !compareSets(w, series(sets[0]), series(sets[1]), "A", "B") {
		return fmt.Errorf("two sets of runs of the same build differ by more than a bound")
	}
	return nil
}

func fsyncs(sets ...[]record) []float64 {
	var out []float64
	for _, s := range sets {
		for _, r := range s {
			out = append(out, r.FsyncUsP50)
		}
	}
	return out
}
