// Package conprobe measures the client-observable consistency of online
// services, reproducing "Characterizing the Consistency of Online
// Services (Practical Experience Report)" (Freitas, Leitão, Preguiça,
// Rodrigues — DSN 2016).
//
// The library has three layers:
//
//   - Checkers (pure functions over traces): detectors for the six
//     anomalies of the paper's Section III — Read Your Writes, Monotonic
//     Writes, Monotonic Reads, Writes Follows Reads, Content Divergence
//     and Order Divergence — plus the content/order divergence-window
//     metrics computed on a clock-delta-corrected timeline.
//
//   - Probing (Section IV): geo-distributed agents running the two
//     black-box test protocols against any Service, with Cristian-style
//     clock synchronization before every test. Services can be the
//     built-in simulated profiles (Google+, Blogger, Facebook Feed,
//     Facebook Group) driven in virtual time, or a live HTTP API probed
//     in real time.
//
//   - Analysis (Section V): aggregation of campaign traces into the
//     paper's figures — anomaly prevalence, per-test distributions,
//     agent-combination correlation, pairwise divergence and window
//     CDFs — with text rendering.
//
// Quick start:
//
//	res, err := conprobe.Run(ctx, conprobe.Options{
//	    Workload: conprobe.Workload{
//	        Service:    conprobe.ServiceGooglePlus,
//	        Test1Count: 100,
//	        Test2Count: 100,
//	        Seed:       1,
//	    },
//	})
//	if err != nil { ... }
//	conprobe.WriteReport(os.Stdout, res.Report)
package conprobe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"conprobe/internal/analysis"
	"conprobe/internal/chaos"
	"conprobe/internal/checkpoint"
	"conprobe/internal/core"
	"conprobe/internal/diskfault"
	"conprobe/internal/obs"
	"conprobe/internal/probe"
	"conprobe/internal/resilience"
	"conprobe/internal/service"
	"conprobe/internal/session"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
)

// Trace model (Section IV data collection).
type (
	// AgentID identifies a measurement agent (1-based).
	AgentID = trace.AgentID
	// WriteID uniquely identifies a write (the paper's M1..M6).
	WriteID = trace.WriteID
	// TestKind distinguishes the two test protocols.
	TestKind = trace.TestKind
	// Write records one write operation.
	Write = trace.Write
	// Read records one read operation and what it observed.
	Read = trace.Read
	// TestTrace is the full log of one test instance.
	TestTrace = trace.TestTrace
	// TraceWriter streams traces as JSON Lines.
	TraceWriter = trace.Writer
	// TraceReader reads JSON Lines traces.
	TraceReader = trace.Reader
)

// The two test protocols.
const (
	Test1 = trace.Test1
	Test2 = trace.Test2
)

// NewTraceWriter streams traces to w as JSON Lines.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceReader reads JSON Lines traces from r.
func NewTraceReader(r io.Reader) *TraceReader { return trace.NewReader(r) }

// Anomaly checkers (Section III).
type (
	// Anomaly enumerates the paper's six consistency anomalies.
	Anomaly = core.Anomaly
	// Violation is one detected anomaly occurrence.
	Violation = core.Violation
	// Pair is an unordered pair of agents.
	Pair = core.Pair
	// WindowResult summarizes one pair's divergence windows in one test.
	WindowResult = core.WindowResult
)

// The six anomalies.
const (
	ReadYourWrites     = core.ReadYourWrites
	MonotonicWrites    = core.MonotonicWrites
	MonotonicReads     = core.MonotonicReads
	WritesFollowsReads = core.WritesFollowsReads
	ContentDivergence  = core.ContentDivergence
	OrderDivergence    = core.OrderDivergence
)

// Checker entry points; each is a pure function over a trace.
var (
	// CheckTest runs every checker.
	CheckTest = core.CheckTest
	// CheckReadYourWrites detects Read Your Writes violations.
	CheckReadYourWrites = core.CheckReadYourWrites
	// CheckMonotonicWrites detects Monotonic Writes violations.
	CheckMonotonicWrites = core.CheckMonotonicWrites
	// CheckMonotonicReads detects Monotonic Reads violations.
	CheckMonotonicReads = core.CheckMonotonicReads
	// CheckWritesFollowsReads detects Writes Follows Reads violations.
	CheckWritesFollowsReads = core.CheckWritesFollowsReads
	// CheckContentDivergence detects Content Divergence between pairs.
	CheckContentDivergence = core.CheckContentDivergence
	// CheckOrderDivergence detects Order Divergence between pairs.
	CheckOrderDivergence = core.CheckOrderDivergence
	// ContentDivergenceWindows computes content divergence windows.
	ContentDivergenceWindows = core.ContentDivergenceWindows
	// OrderDivergenceWindows computes order divergence windows.
	OrderDivergenceWindows = core.OrderDivergenceWindows
	// AllAnomalies lists the six anomalies in definition order.
	AllAnomalies = core.AllAnomalies
)

// Services (Section V subjects).
type (
	// Service is the black-box API surface agents probe.
	Service = service.Service
	// Post is one message as seen through a service API.
	Post = service.Post
	// Profile declares a simulated service's behavior.
	Profile = service.Profile
	// Selection models interest-based read results (Facebook Feed).
	Selection = service.Selection
)

// Built-in profile names.
const (
	ServiceBlogger    = service.NameBlogger
	ServiceGooglePlus = service.NameGooglePlus
	ServiceFBFeed     = service.NameFBFeed
	ServiceFBGroup    = service.NameFBGroup
)

// Profile constructors and lookup.
var (
	// ProfileNames lists the built-in profiles in the paper's order.
	ProfileNames = service.ProfileNames
	// ProfileByName resolves a built-in profile.
	ProfileByName = service.ProfileByName
	// BloggerProfile models the Blogger API (strong consistency).
	BloggerProfile = service.Blogger
	// GooglePlusProfile models the Google+ moments API.
	GooglePlusProfile = service.GooglePlus
	// FBFeedProfile models the Facebook news feed API.
	FBFeedProfile = service.FBFeed
	// FBGroupProfile models the Facebook Group API.
	FBGroupProfile = service.FBGroup
)

// Probing (Section IV methodology).
type (
	// CampaignResult holds a campaign's traces.
	CampaignResult = probe.Result
	// Agent is one measurement client.
	Agent = probe.Agent
	// CampaignConfig describes a measurement campaign.
	CampaignConfig = probe.Config
	// TestConfig carries per-test parameters (Tables I and II).
	TestConfig = probe.TestConfig
	// Runner executes tests and campaigns.
	Runner = probe.Runner
	// ClientWrapper interposes on an agent's service handle.
	ClientWrapper = probe.ClientWrapper
	// Options parameterize Run, grouped by concern: Workload, Engine,
	// Resilience, Durability, Telemetry and the Faults/Chaos drills.
	Options = probe.Options
	// Workload is what campaign to run, its deterministic identity.
	Workload = probe.Workload
	// Engine tunes the lane engine and where completed traces flow.
	Engine = probe.Engine
	// Resilience hardens each agent's probing path.
	Resilience = probe.Resilience
	// Durability journals the campaign for crash-safe resume.
	Durability = probe.Durability
	// Telemetry observes the campaign without perturbing it.
	Telemetry = probe.Telemetry
)

// DefaultLanes is the default number of lanes Run partitions a campaign
// into.
const DefaultLanes = probe.DefaultLanes

// Observability. The obs package is the self-measurement layer: a
// dependency-free registry of atomic counters, gauges and histograms
// threaded through the campaign engine as a Scope. Metrics are observed,
// never fed back into scheduling, so enabling them cannot perturb the
// byte-identical-output-at-any-parallelism guarantee.
type (
	// MetricsRegistry holds named metrics and serves /metrics.
	MetricsRegistry = obs.Registry
	// MetricsScope registers metrics under a name prefix and label set.
	MetricsScope = obs.Scope
	// EngineStats is a deterministic-ordered snapshot of every series.
	EngineStats = obs.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry; derive a scope
// with its Scope method and pass it to Telemetry.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ChaosSchedule scripts deterministic adverse conditions (partitions,
// outages, clock steps, overload windows) on the campaign timeline.
type ChaosSchedule = chaos.Schedule

// DiskInjector is a deterministic storage-fault injector; its FS()
// threads beneath a WAL or a checkpoint journal, and
// chaos diskfault events arm faults on it.
type DiskInjector = diskfault.Injector

// NewDiskInjector returns a storage-fault injector reporting to sc
// (nil disables its metrics).
func NewDiskInjector(sc *MetricsScope) *DiskInjector { return diskfault.New(sc) }

// EngineClock is the time source interface the engine reads telemetry
// from; vtime.Sim and vtime.Real both satisfy it.
type EngineClock = vtime.Clock

// NewVirtualClock returns a virtual-time EngineClock pinned at start. It
// never advances on its own, so engine durations read from it are
// exactly zero — the deterministic choice for metrics snapshots that
// must be comparable across runs.
func NewVirtualClock(start time.Time) EngineClock { return vtime.NewSim(start) }

// RunResult is the outcome of Run: the merged campaign traces plus the
// analysis report, accumulated incrementally while the campaign ran (one
// lock-free aggregator per lane, merged in lane order at the end).
type RunResult struct {
	*CampaignResult
	// Report is the streaming analysis of every collected trace. It is
	// available even with Engine.DiscardTraces set, which is how an
	// arbitrarily long campaign runs in bounded memory.
	Report *Report
	// EngineStats is the final snapshot of Telemetry.Metrics' registry:
	// every engine, resilience, fault-injection and aggregation series
	// the campaign produced, in deterministic order. Nil when no Metrics
	// scope was supplied.
	EngineStats EngineStats
	// Warnings reports conditions the campaign survived but the caller
	// should know about — e.g. a checkpoint journal disabled mid-run by a
	// storage failure (the campaign finished; crash-resumability was
	// lost). Empty for a clean run.
	Warnings []string
}

// Run executes a simulated measurement campaign partitioned across
// concurrent lanes and streams its analysis. It is the preferred entry
// point: it honors ctx (a cancelled campaign stops mid-test and returns
// the traces collected so far alongside the error), scales with cores
// via Parallelism, and aggregates anomaly statistics incrementally so
// the full trace set never has to be held in memory (set
// Engine.DiscardTraces to drop it).
//
// Determinism: for a fixed Workload and Engine.Lanes, Run's output is
// identical at any Engine.Parallelism. The lanes' worlds draw from
// seeds derived per lane (a single lane is one world on Workload.Seed
// itself), so the lane count is part of the campaign's identity.
func Run(ctx context.Context, opts Options) (*RunResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	w := opts.Workload
	lanes := opts.Engine.LaneCount()
	if opts.Durability.Resume && opts.Durability.Checkpoint == "" {
		return nil, errors.New("conprobe: Durability.Resume requires a Checkpoint path")
	}
	// One aggregator per lane: the engine's sink is sequential within a
	// lane, so no aggregator is ever touched concurrently and no lock is
	// needed on the hot path.
	aggs := make([]*analysis.Aggregator, lanes)
	for i := range aggs {
		aggs[i] = analysis.NewAggregator(w.Service)
	}
	// Traces completed before a resume, recovered from the journal; the
	// resumed lanes re-run nothing, so these are merged into the final
	// Result as-is. done counts completed tests, journaled ones included.
	var (
		journaled []*TestTrace
		resume    []probe.LaneResume
		ckw       *checkpoint.Writer
		deltas    []*analysis.Aggregator // a journaled lane's latest test alone
		done      int
	)
	if opts.Durability.Checkpoint != "" {
		meta := checkpoint.Meta{
			Service:         w.Service,
			Seed:            w.Seed,
			Lanes:           lanes,
			Test1Count:      w.Test1Count,
			Test2Count:      w.Test2Count,
			AlternateBlocks: w.AlternateBlocks,
			Start:           w.Epoch(),
			Rotate:          w.Rotate,
			SyncSamples:     w.SyncSamples,
		}
		ccfg := checkpoint.Config{
			KeepTraces: !opts.Engine.DiscardTraces,
			FS:         opts.Durability.FS,
		}
		var err error
		if opts.Durability.Resume {
			st, lerr := checkpoint.LoadFS(opts.Durability.FS, opts.Durability.Checkpoint)
			if lerr != nil {
				return nil, lerr
			}
			if !st.Meta.Matches(meta) {
				return nil, fmt.Errorf("conprobe: checkpoint %s was written by a different campaign (journal %+v, options %+v)",
					opts.Durability.Checkpoint, st.Meta, meta)
			}
			resume = make([]probe.LaneResume, lanes)
			for l := 0; l < lanes; l++ {
				resume[l] = probe.LaneResume{Done: st.Done(l)}
				if lr := st.Lanes[l]; lr != nil {
					resume[l].At = lr.Next
					resume[l].Resilience = lr.Resilience
					aggs[l] = lr.Agg
					done += len(lr.Done)
				}
			}
			// A journal keeps every test's trace or none: resuming it with
			// the other setting would drop journaled traces from the Result,
			// or return them from a campaign that discards its traces.
			journaled = st.CompletedTraces()
			if done > 0 && (len(journaled) > 0) == opts.Engine.DiscardTraces {
				return nil, fmt.Errorf("conprobe: checkpoint %s journals %d traces of %d completed tests; resume it with the Engine.DiscardTraces it was written with",
					opts.Durability.Checkpoint, len(journaled), done)
			}
			ckw, err = checkpoint.Continue(opts.Durability.Checkpoint, st, ccfg)
		} else {
			ckw, err = checkpoint.Create(opts.Durability.Checkpoint, meta, ccfg)
		}
		if err != nil {
			return nil, err
		}
		defer ckw.Close()
		deltas = make([]*analysis.Aggregator, lanes)
		for i := range deltas {
			deltas[i] = analysis.NewAggregator(w.Service)
		}
	}
	// The one lane sink keeps the order a resume relies on: the lane's
	// aggregator, then OnTrace and Progress (serialized across lanes),
	// then the journal, so a test is journaled only once every consumer
	// has accepted it. A journaled test's checkers run once, for the
	// lane's delta, which the aggregator merges and the journal records.
	// The journal append stays outside mu: it writes the frame in the
	// lane, in sink order, and the journal's syncer fsyncs it behind the
	// lanes (a lane waits only at 64 unsynced frames).
	var mu sync.Mutex
	total := max(w.Test1Count, 0) + max(w.Test2Count, 0)
	sink := func(lane int, tr *trace.TestTrace, next time.Time, res map[string]resilience.Snapshot) error {
		if ckw != nil {
			aggs[lane].AddDelta(tr, deltas[lane])
		} else {
			aggs[lane].Add(tr)
		}
		mu.Lock()
		var err error
		if opts.Engine.OnTrace != nil {
			err = opts.Engine.OnTrace(tr)
		}
		if err == nil {
			done++
			if opts.Engine.Progress != nil {
				opts.Engine.Progress(done, total)
			}
		}
		mu.Unlock()
		if err != nil || ckw == nil {
			return err
		}
		return ckw.AppendDelta(lane, tr, next, res, deltas[lane])
	}
	for i := range aggs {
		aggs[i].Instrument(opts.Telemetry.Metrics.Sub("aggregator").With("lane", strconv.Itoa(i)))
	}
	res, err := probe.SimulateConcurrent(ctx, opts, resume, sink)
	out := &RunResult{CampaignResult: res}
	if ckw != nil {
		if derr := ckw.Degraded(); derr != nil {
			out.Warnings = append(out.Warnings,
				fmt.Sprintf("checkpoint journaling disabled by a storage failure; the campaign finished but cannot be resumed from %s: %v",
					opts.Durability.Checkpoint, derr))
		}
	}
	if res != nil {
		if len(journaled) > 0 {
			res.Traces = append(journaled, res.Traces...)
			sort.Slice(res.Traces, func(i, j int) bool {
				return res.Traces[i].TestID < res.Traces[j].TestID
			})
		}
		out.Report = analysis.MergeAggregators(res.Service, aggs)
	}
	out.EngineStats = opts.Telemetry.Metrics.Registry().Snapshot()
	return out, err
}

var (
	// CampaignFor returns a service's Tables I/II campaign parameters.
	CampaignFor = probe.CampaignFor
	// PaperTestCounts returns the paper's per-service test counts.
	PaperTestCounts = probe.PaperTestCounts
	// DefaultAgents builds the Oregon/Tokyo/Ireland agent deployment.
	DefaultAgents = probe.DefaultAgents
	// NewRunner builds a campaign runner over any Service.
	NewRunner = probe.NewRunner
)

// Analysis and reporting (Section V).
type (
	// Report is the complete analysis of a campaign.
	Report = analysis.Report
	// SessionStats describes one session-guarantee anomaly.
	SessionStats = analysis.SessionStats
	// DivergenceStats describes one divergence anomaly.
	DivergenceStats = analysis.DivergenceStats
	// PairStats describes one agent pair's divergence behavior.
	PairStats = analysis.PairStats
)

var (
	// Analyze aggregates checker output over campaign traces.
	Analyze = analysis.Analyze
	// Histogram buckets per-test violation counts.
	Histogram = analysis.Histogram
)

// Session-guarantee masking (Section V discussion).
type (
	// Guarantees selects which session guarantees to enforce.
	Guarantees = session.Guarantees
	// SessionClient is a per-agent session layer over a Service.
	SessionClient = session.Client
)

// Maskable guarantees.
const (
	MaskReadYourWrites     = session.ReadYourWrites
	MaskMonotonicReads     = session.MonotonicReads
	MaskMonotonicWrites    = session.MonotonicWrites
	MaskWritesFollowsReads = session.WritesFollowsReads
	MaskAll                = session.All
)

// WrapSession builds a session Client enforcing g for an agent.
var WrapSession = session.Wrap
