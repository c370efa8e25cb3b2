// Command conanalyze reads campaign traces (JSON Lines, as written by
// conprobe -trace or a live deployment) and prints the paper-style
// analysis. Traces from several services can share one file; each
// service is analyzed and reported separately.
//
// Usage:
//
//	conanalyze traces.jsonl
//	conanalyze -csv traces.jsonl      # figure data series as CSV
//	conprobe -service all -trace - | conanalyze
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"conprobe/internal/analysis"
	"conprobe/internal/cliflags"
	"conprobe/internal/core"
	"conprobe/internal/report"
	"conprobe/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "conanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("conanalyze", flag.ContinueOnError)
	var (
		formats  = cliflags.FormatFlags(fs)
		streaks  = fs.Int("streaks", 0, "also report anomaly streaks of at least this many consecutive tests")
		blocks   = fs.Int("stability", 0, "also report per-block anomaly rates with this block size")
		baseline = fs.String("baseline", "", "compare against traces in this JSONL file (per-service Wilson CIs and window KS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	var in io.Reader = stdin
	if len(rest) > 1 {
		return fmt.Errorf("usage: conanalyze [-csv] [traces.jsonl]")
	}
	if len(rest) == 1 && rest[0] != "-" {
		f, err := os.Open(rest[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	traces, err := trace.NewReader(in).ReadAll()
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("no traces in input")
	}

	byService := trace.GroupByService(traces)

	baselineByService := make(map[string][]*trace.TestTrace)
	if *baseline != "" {
		bf, err := os.Open(*baseline)
		if err != nil {
			return err
		}
		baseTraces, err := trace.NewReader(bf).ReadAll()
		bf.Close()
		if err != nil {
			return err
		}
		baselineByService = trace.GroupByService(baseTraces)
	}
	names := trace.ServiceNames(traces)
	for _, name := range names {
		rep := analysis.Analyze(name, byService[name])
		if bts, ok := baselineByService[name]; ok {
			baseRep := analysis.Analyze(name, bts)
			cmp := analysis.Compare(rep, baseRep)
			label := fmt.Sprintf("%s (A = input, B = baseline)", name)
			if err := report.WriteComparison(stdout, label, cmp); err != nil {
				return err
			}
		}
		if *blocks > 0 {
			if err := report.WriteStability(stdout, byService[name], *blocks); err != nil {
				return err
			}
		}
		if *streaks > 0 {
			for _, a := range core.AllAnomalies() {
				for _, s := range analysis.DetectStreaks(byService[name], a, *streaks) {
					fmt.Fprintf(stdout, "streak  %s %s: tests %d..%d (%d tests, agents %v)\n",
						name, a, s.FirstID, s.LastID, s.Length, s.Agents)
				}
			}
		}
		var err error
		switch {
		case *formats.CSV:
			err = report.WriteCSV(stdout, rep)
		case *formats.JSON:
			err = report.WriteJSON(stdout, rep)
		case *formats.MD:
			err = report.WriteMarkdown(stdout, rep)
		default:
			err = report.WriteReport(stdout, rep)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
