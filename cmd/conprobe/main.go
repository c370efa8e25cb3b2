// Command conprobe runs a simulated consistency-measurement campaign
// against one of the paper's service profiles and prints the paper-style
// analysis (Figures 3-10 equivalents). Optionally the raw traces are
// saved as JSON Lines for later analysis with conanalyze.
//
// Usage:
//
//	conprobe -service googleplus -test1 100 -test2 100 -seed 1 [-trace out.jsonl]
//	conprobe -service all -test1 100 -test2 100
//	conprobe -service fbgroup -paper        # full Tables I/II test counts
//	conprobe -service fbfeed -mask          # session-guarantee masking ablation
//	conprobe -service fbgroup -rotate 1     # rotate agent locations
//	conprobe -service fbfeed -profile my.json  # custom JSON profile over
//	                                           # fbfeed campaign parameters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"

	"conprobe"
	"conprobe/internal/analysis"
	"conprobe/internal/chaos"
	"conprobe/internal/cliflags"
	"conprobe/internal/faultinject"
	"conprobe/internal/obs"
	"conprobe/internal/probe"
	"conprobe/internal/profilecfg"
	"conprobe/internal/report"
	"conprobe/internal/service"
	"conprobe/internal/session"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
)

// errAbortAfter is the sentinel a -abort-after crash drill injects
// through OnTrace to stop the campaign mid-flight.
var errAbortAfter = errors.New("abort-after limit reached")

func main() {
	// Interrupt cancels the campaign; -trace output streams as tests
	// complete, so collected traces are still flushed before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "conprobe:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("conprobe", flag.ContinueOnError)
	var (
		svcName   = cliflags.ServiceMulti(fs)
		test1     = fs.Int("test1", 50, "number of Test 1 instances")
		test2     = fs.Int("test2", 50, "number of Test 2 instances")
		seed      = cliflags.Seed(fs)
		paper     = fs.Bool("paper", false, "use the paper's full test counts (Tables I and II)")
		mask      = fs.Bool("mask", false, "wrap agents in the session-guarantee masking middleware")
		rotate    = fs.Int("rotate", 0, "rotate agent locations cyclically by this many positions")
		formats   = cliflags.FormatFlags(fs)
		htmlOut   = fs.Bool("html", false, "emit one self-contained HTML page with SVG figures")
		parallel  = fs.Int("parallelism", 0, "simulate this many lanes concurrently (0 = GOMAXPROCS); a throughput knob: for a fixed -lanes it never changes the output")
		lanesN    = fs.Int("lanes", 0, "lane count; fixes the partition and hence the output (default 1, or 8 when -parallelism is set)")
		alternate = fs.Int("alternate", 1, "interleave Test 1/Test 2 in this many alternating blocks (the paper's four-day alternation)")
		profPath  = fs.String("profile", "", "JSON profile overriding the service's behavior (campaign parameters still come from -service)")
		dumpProf  = fs.Bool("dump-profile", false, "print the -service profile as JSON and exit (template for -profile)")
		tracePath = fs.String("trace", "", "write raw traces to this JSONL file")

		inject = cliflags.InjectFlags(fs)
		resil  = cliflags.ResilienceFlags(fs)

		metricsJSON = fs.Bool("metrics-json", false, "append a JSON snapshot of the campaign's engine metrics to the output")
		pprofAddr   = cliflags.Pprof(fs)

		ckptPath   = fs.String("checkpoint", "", "journal campaign progress to this file (requires a single -service)")
		resumeRun  = fs.Bool("resume", false, "resume the campaign journaled in -checkpoint instead of starting fresh")
		abortAfter = fs.Int("abort-after", 0, "abort the campaign after this many completed tests (crash drill for -checkpoint; 0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	names := []string{*svcName}
	if *svcName == "all" {
		names = service.ProfileNames()
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, obs.PProfMux()); err != nil {
				fmt.Fprintln(os.Stderr, "conprobe: pprof:", err)
			}
		}()
	}
	// A nil registry still hands out scopes; every instrumented layer
	// then runs on live unregistered metrics, so the campaign code below
	// never branches on whether -metrics-json was set.
	var reg *obs.Registry
	if *metricsJSON {
		reg = obs.NewRegistry()
	}

	if *dumpProf {
		if *svcName == "all" {
			return fmt.Errorf("-dump-profile needs a single -service")
		}
		p, err := service.ProfileByName(*svcName)
		if err != nil {
			return err
		}
		return profilecfg.Save(out, p)
	}

	var (
		customProfile *service.Profile
		configureNet  func(*simnet.Network)
		faults        *faultinject.Config
		chaosSched    *chaos.Schedule
	)
	if *profPath != "" {
		if *svcName == "all" {
			return fmt.Errorf("-profile needs a single -service for its campaign parameters")
		}
		f, err := os.Open(*profPath)
		if err != nil {
			return err
		}
		loaded, err := profilecfg.LoadAll(f)
		f.Close()
		if err != nil {
			return err
		}
		customProfile = &loaded.Profile
		faults = loaded.Faults
		chaosSched = loaded.Chaos
		if len(loaded.Links) > 0 {
			links := loaded.Links
			configureNet = func(n *simnet.Network) {
				for _, l := range links {
					n.SetRTT(l.A, l.B, l.RTT)
				}
			}
		}
	}
	// The lane count is part of the campaign's identity: one world unless
	// asked otherwise, the engine's default (8) when only -parallelism is.
	lanes := *lanesN
	if *lanesN <= 0 && *parallel <= 0 {
		lanes = 1
	}
	if *ckptPath != "" && *svcName == "all" {
		return fmt.Errorf("-checkpoint needs a single -service")
	}
	if *resumeRun && *ckptPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if *resumeRun && *tracePath != "" {
		return fmt.Errorf("-resume cannot be combined with -trace: the journal holds no traces, so a resumed run would truncate the pre-crash archive, and appending would repeat the test traced just before the crash")
	}

	// A chaos diskfault event needs a real file to fault: in the
	// simulated campaign the only disk surface is the checkpoint
	// journal, so that is the only site conprobe can arm — the cluster
	// sites are drilled on a live node with consvc -disk-fault.
	var diskInj *conprobe.DiskInjector
	if chaosSched != nil {
		for _, e := range chaosSched.Events {
			if e.Kind != chaos.KindDiskFault {
				continue
			}
			if e.Site != "checkpoint" {
				return fmt.Errorf("chaos diskfault site %q: a simulated campaign's only disk surface is the checkpoint journal; drill %q with consvc -disk-fault instead", e.Site, e.Site)
			}
			if *ckptPath == "" {
				return fmt.Errorf("chaos diskfault(checkpoint, ...) needs -checkpoint")
			}
			if diskInj == nil {
				diskInj = conprobe.NewDiskInjector(reg.Scope("conprobe").Sub("diskfault"))
			}
		}
	}

	// Explicit -inject-* flags take precedence over a profile's
	// fault_injection block.
	if flagFaults, ok := inject.Config(); ok {
		if err := flagFaults.Validate(); err != nil {
			return err
		}
		faults = &flagFaults
	}
	retryPolicy, breakerCfg := resil.Policies()

	var tw *trace.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		tw = trace.NewWriter(f)
		defer tw.Flush()
	}

	var wrap probe.ClientWrapper
	if *mask {
		wrap = func(ag probe.Agent, svc service.Service) service.Service {
			return session.Wrap(svc, ag.Label(), session.All)
		}
	}

	var htmlReports []*analysis.Report
	for _, name := range names {
		t1, t2 := *test1, *test2
		var progress func(int, int)
		if *paper {
			var err error
			t1, t2, err = probe.PaperTestCounts(name)
			if err != nil {
				return err
			}
			progress = func(n, total int) {
				if n%100 == 0 {
					fmt.Fprintf(os.Stderr, "conprobe: %s %d/%d tests\n", name, n, total)
				}
			}
		}
		// Traces stream to the JSONL writer as they complete and the
		// analysis aggregates incrementally per lane, so nothing has to be
		// retained in memory. Checkpointing and resume ride on the same
		// path via the library facade.
		runOpts := conprobe.Options{
			Workload: conprobe.Workload{
				Service:          name,
				Test1Count:       t1,
				Test2Count:       t2,
				Seed:             *seed,
				Wrap:             wrap,
				Rotate:           *rotate,
				Profile:          customProfile,
				AlternateBlocks:  *alternate,
				ConfigureNetwork: configureNet,
			},
			Engine: conprobe.Engine{
				Lanes:         lanes,
				Parallelism:   *parallel,
				Progress:      progress,
				DiscardTraces: true,
			},
			Resilience: conprobe.Resilience{
				Retry:   retryPolicy,
				Breaker: breakerCfg,
			},
			Durability: conprobe.Durability{
				Checkpoint: *ckptPath,
				Resume:     *resumeRun,
			},
			Telemetry: conprobe.Telemetry{
				Metrics: reg.Scope("conprobe").With("service", name),
			},
			Faults: faults,
			Chaos:  chaosSched,
		}
		if diskInj != nil {
			runOpts.Durability.FS = diskInj.FS()
			runOpts.Disks = map[string]*conprobe.DiskInjector{"checkpoint": diskInj}
		}
		completed := 0
		runOpts.Engine.OnTrace = func(tr *trace.TestTrace) error {
			if tw != nil {
				if err := tw.Write(tr); err != nil {
					return err
				}
			}
			completed++
			if *abortAfter > 0 && completed >= *abortAfter {
				return errAbortAfter
			}
			return nil
		}
		res, err := conprobe.Run(ctx, runOpts)
		if errors.Is(err, errAbortAfter) {
			return fmt.Errorf("aborted after %d completed tests (crash drill); continue with -resume", *abortAfter)
		}
		if err != nil {
			return err
		}
		for _, w := range res.Warnings {
			fmt.Fprintln(os.Stderr, "conprobe: warning:", w)
		}
		switch {
		case *htmlOut:
			htmlReports = append(htmlReports, res.Report)
		case *formats.JSON:
			err = report.WriteJSON(out, res.Report)
		case *formats.CSV:
			err = report.WriteCSV(out, res.Report)
		case *formats.MD:
			err = report.WriteMarkdown(out, res.Report)
		default:
			err = report.WriteReport(out, res.Report)
		}
		if err != nil {
			return err
		}
	}
	if *htmlOut {
		if err := report.WriteHTML(out, htmlReports); err != nil {
			return err
		}
	}
	if *metricsJSON {
		if err := reg.Snapshot().WriteJSON(out); err != nil {
			return err
		}
	}
	return nil
}
