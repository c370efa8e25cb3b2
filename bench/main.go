// Command bench is the repository's benchmark: four workloads over the
// campaign stack and the consvc stack, end-to-end figures from an
// untraced run and a per-layer ladder from a traced one. README.md in
// this directory says what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runCap is the longest one run of one workload may take; the driver
// gives up on a run at this point, so the benchmark fails loudly first.
const runCap = 180 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload "+fmt.Sprint(workloadNames)+"; empty runs all four")
		seed    = fs.Int64("seed", 1, "fixes every generated input")
		seconds = fs.Int("seconds", 10, "nominal measuring time of a run's five windows together")
		traced  = fs.Int("trace", 0, "1 records spans and reports the per-layer figures; 0 reports the end-to-end ones")
		dir     = fs.String("dir", "bench/out", "where data directories and span files are created; use a disk-backed one")
		out     = fs.String("out", "", "append one JSON line per run to this file")
		check   = fs.Bool("selfcheck", false, "run the untraced suite as interleaved sets A B A B and fail if they differ beyond a bound")
		compare = fs.Bool("compare", false, "compare the two record files given as arguments and fail on a worsening beyond a bound")
		smoke   = fs.Bool("smoke", false, "tiny sizes, one window: checks that everything runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be between 1 and 60 and -trace 0 or 1")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			return 2
		}
		if err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	// Load comes from this one process: P goroutines, each with its own
	// connection, on P processors.
	p := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(p)
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	newEnv := func() *env { return &env{seed: *seed, seconds: *seconds, p: p, dir: *dir, smoke: *smoke} }
	if *check {
		if err := selfcheck(os.Stdout, newEnv()); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}

	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	code := 0
	for _, n := range names {
		e := newEnv()
		var res *result
		var err error
		if *traced == 1 {
			res, err = runTraced(n, e)
		} else {
			res, err = runEndToEnd(n, e)
		}
		if err == nil && res.Wall > runCap {
			err = fmt.Errorf("%s took %.0fs, over the %.0fs a run may take", n, res.Wall.Seconds(), runCap.Seconds())
		}
		if err == nil && *out != "" {
			err = appendRecord(*out, res, e, *traced == 1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if err := printResult(res, p); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if len(res.Problems) > 0 {
			code = 1
		}
	}
	return code
}

// printResult prints every figure by name with its unit, then the one
// JSON object the driver reads as the last line of a run.
func printResult(res *result, p int) error {
	fmt.Printf("%s: ops_attempted %d, ops_failed %d, wall %.1fs of %.0fs allowed, at most %d load goroutines, GOMAXPROCS %d\n",
		res.Workload, res.Attempted, res.Failed, res.Wall.Seconds(), runCap.Seconds(), p, runtime.GOMAXPROCS(0))
	for _, problem := range res.Problems {
		fmt.Printf("  INCORRECT: %s\n", problem)
	}
	order := res.Metrics.order
	if res.Spans != nil {
		order = order[:0]
		for _, d := range layerDefs {
			order = append(order, d.Name)
		}
	}
	for _, n := range order {
		m := res.Metrics.byName[n]
		fmt.Printf("  %-34s %14.4f %-6s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
	}
	if res.Info != nil {
		fmt.Println("  wall-clock figures, not gated:")
		for _, n := range res.Info.order {
			m := res.Info.byName[n]
			fmt.Printf("  %-34s %14.4f %-6s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	printSpans(res)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{len(res.Problems) == 0, res.Attempted, res.Failed, make(map[string]valueUnit)}
	for n, m := range res.Metrics.byName {
		out.Metrics[n] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("%s: a figure is not a number: %w", res.Workload, err)
	}
	fmt.Println(string(line))
	return nil
}
