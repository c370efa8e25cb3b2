// Command conload generates load against a consistency service and
// reports latency and throughput. It drives either a running consvc
// instance over the JSON HTTP API (-addr) or an in-process simulated
// profile (-inproc), which needs no server and is what `make load` and
// the CI smoke step use.
//
// Each simulated user runs its own request loop, fanning out across the
// client sites given by -sites and mixing writes and reads per
// -write-ratio. With -rate 0 (the default) the load is closed-loop:
// every user issues its next request as soon as the previous one
// completes. A positive -rate paces the users to an aggregate target of
// that many requests per second; a user that falls behind its schedule
// issues back-to-back requests until it catches up, so slow responses
// surface as latency, not as a silently lower offered rate.
//
// The run ends after -duration and prints a JSON summary: request and
// error counts, achieved throughput, and per-operation latency
// percentiles computed from the raw samples. The same latencies also
// feed obs histograms, whose snapshot is embedded in the summary under
// "metrics".
//
// Usage:
//
//	conload -addr http://localhost:8080 -users 16 -duration 30s
//	conload -inproc -service fbfeed -users 8 -write-ratio 0.2 -api-delay 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"conprobe/internal/cliflags"
	"conprobe/internal/cluster"
	"conprobe/internal/detrand"
	"conprobe/internal/httpapi"
	"conprobe/internal/obs"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/stats"
	"conprobe/internal/vtime"
)

func main() {
	cfg, err := build(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "conload:", err)
		os.Exit(1)
	}
	sum, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conload:", err)
		os.Exit(1)
	}
	out := os.Stdout
	if cfg.Out != "" {
		f, err := os.Create(cfg.Out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "conload:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "conload:", err)
		os.Exit(1)
	}
}

// Config is the parsed command line.
type Config struct {
	Addr       string
	Peers      []string
	ReadMode   string // cluster read consistency for -addr targets
	InProc     bool
	Service    string
	Users      int
	Duration   time.Duration
	Rate       float64 // aggregate req/s; 0 = closed loop
	WriteRatio float64
	Sites      []simnet.Site
	Seed       int64
	APIDelay   time.Duration // -1 = profile default (inproc only)
	RunID      string
	Out        string
	SpikeUsers int           // extra closed-loop users for the spike window
	SpikeFor   time.Duration // how long the spike users run
}

// build parses args into a Config.
func build(args []string) (Config, error) {
	fs := flag.NewFlagSet("conload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "target consvc base URL (e.g. http://localhost:8080)")
		peersCSV = fs.String("peers", "", "comma-separated base URLs of the target's cluster peers; writes follow the elected leader across failovers")
		readMode = cliflags.ReadMode(fs)
		inproc   = fs.Bool("inproc", false, "drive an in-process simulated service instead of a server")
		svcName  = cliflags.Service(fs, cliflags.DefaultService)
		users    = fs.Int("users", 8, "concurrent simulated users")
		duration = fs.Duration("duration", 10*time.Second, "how long to generate load")
		rate     = fs.Float64("rate", 0, "aggregate target requests/second (0 = closed loop)")
		wratio   = fs.Float64("write-ratio", 0.1, "fraction of requests that are writes, in [0,1]")
		sitesCSV = cliflags.Sites(fs)
		seed     = cliflags.Seed(fs)
		apiDelay = fs.Duration("api-delay", -1, "override the profile's server-side APIDelay for -inproc (-1 = keep)")
		runID    = fs.String("run-id", "", "unique prefix for post IDs (default derives from the wall clock)")
		out      = fs.String("out", "", "write the JSON summary to this file instead of stdout")

		spikeUsers = fs.Int("spike-users", 0, "extra closed-loop users added for the spike window, to drive a server past its admission limit")
		spikeFor   = fs.Duration("spike-for", 0, "how long the spike users run from the start of the load (0 with -spike-users = the whole run)")
	)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	cfg := Config{
		Addr: *addr, ReadMode: *readMode, InProc: *inproc, Service: *svcName,
		Users: *users, Duration: *duration, Rate: *rate, WriteRatio: *wratio,
		Seed: *seed, APIDelay: *apiDelay, RunID: *runID, Out: *out,
		SpikeUsers: *spikeUsers, SpikeFor: *spikeFor,
	}
	if (cfg.Addr == "") == !cfg.InProc {
		return Config{}, fmt.Errorf("exactly one of -addr or -inproc is required")
	}
	if cfg.Users <= 0 {
		return Config{}, fmt.Errorf("-users must be positive, got %d", cfg.Users)
	}
	if cfg.Duration <= 0 {
		return Config{}, fmt.Errorf("-duration must be positive, got %v", cfg.Duration)
	}
	if cfg.WriteRatio < 0 || cfg.WriteRatio > 1 {
		return Config{}, fmt.Errorf("-write-ratio must be in [0,1], got %v", cfg.WriteRatio)
	}
	if cfg.Rate < 0 {
		return Config{}, fmt.Errorf("-rate must be non-negative, got %v", cfg.Rate)
	}
	for _, s := range strings.Split(*peersCSV, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		cfg.Peers = append(cfg.Peers, s)
	}
	if len(cfg.Peers) > 0 && cfg.InProc {
		return Config{}, fmt.Errorf("-peers only applies to -addr targets")
	}
	if mode, err := cluster.ParseReadMode(cfg.ReadMode); err != nil {
		return Config{}, err
	} else if mode != cluster.ReadLocal && cfg.InProc {
		return Config{}, fmt.Errorf("-read-mode %s only applies to -addr targets", mode)
	}
	for _, s := range strings.Split(*sitesCSV, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		cfg.Sites = append(cfg.Sites, simnet.Site(s))
	}
	if len(cfg.Sites) == 0 {
		return Config{}, fmt.Errorf("-sites lists no sites")
	}
	if cfg.SpikeUsers < 0 {
		return Config{}, fmt.Errorf("-spike-users must be non-negative, got %d", cfg.SpikeUsers)
	}
	if cfg.SpikeFor < 0 {
		return Config{}, fmt.Errorf("-spike-for must be non-negative, got %v", cfg.SpikeFor)
	}
	return cfg, nil
}

// LatencySummary is one operation class's latency profile, in
// milliseconds, computed from the raw samples.
type LatencySummary struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary is the run's JSON report.
type Summary struct {
	Service         string   `json:"service"`
	Target          string   `json:"target"`
	Users           int      `json:"users"`
	DurationSeconds float64  `json:"duration_seconds"`
	TargetRPS       float64  `json:"target_rps"`
	WriteRatio      float64  `json:"write_ratio"`
	Sites           []string `json:"sites"`
	Requests        int      `json:"requests"`
	Writes          int      `json:"writes"`
	Reads           int      `json:"reads"`
	Errors          int      `json:"errors"`
	// Shed counts 429 rejections (admission-queue sheds and rate
	// limits); Unavailable counts 503s from outage windows. Both are
	// included in Errors.
	Shed        int `json:"shed"`
	Unavailable int `json:"unavailable"`
	// RedirectedWrites counts writes the first-contact node could not
	// take — a follower's 421 refusal, or an unreachable (killed) leader
	// when -peers is set; each is retried once against the current
	// leader (the 421's X-Cluster-Leader hint, or the leader the peers
	// report after an election). RedirectRetriesOK counts the retries
	// that then succeeded — those writes land in Writes as usual and
	// never reach Errors.
	RedirectedWrites  int `json:"redirected_writes,omitempty"`
	RedirectRetriesOK int `json:"redirect_retries_ok,omitempty"`
	// ReadMode echoes the requested consistency level; the per-mode
	// counters report which mode actually vouched for each read (a
	// stale lease silently upgrades to a quorum round), and
	// RedirectedReads counts reads that chased a moved leader.
	ReadMode        string `json:"read_mode,omitempty"`
	LeaseReads      int    `json:"lease_reads,omitempty"`
	QuorumReads     int    `json:"quorum_reads,omitempty"`
	RedirectedReads int    `json:"redirected_reads,omitempty"`
	// Interrupted is true when the run was cut short by SIGINT/SIGTERM;
	// the summary then covers the partial run up to the drain.
	Interrupted    bool            `json:"interrupted,omitempty"`
	SpikeUsers     int             `json:"spike_users,omitempty"`
	ThroughputRPS  float64         `json:"throughput_rps"`
	WriteLatencyMS LatencySummary  `json:"write_latency_ms"`
	ReadLatencyMS  LatencySummary  `json:"read_latency_ms"`
	Metrics        json.RawMessage `json:"metrics"`
}

// workerStats accumulates one user's outcome; workers share nothing, so
// the loops run lock-free and the slices merge after the run.
type workerStats struct {
	writes, reads, errors int
	shed, unavailable     int
	writeLat, readLat     []float64 // seconds
}

// note classifies one request outcome into the worker's counters: any
// error counts, and *httpapi.APIError splits out 429 (shed or rate
// limited) and 503 (outage) rejections.
func (ws *workerStats) note(err error, errc *obs.Counter) {
	if err == nil {
		return
	}
	ws.errors++
	errc.Inc()
	var apiErr *httpapi.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests:
			ws.shed++
		case http.StatusServiceUnavailable:
			ws.unavailable++
		}
	}
}

// buildService assembles the target: an httpapi client (with cluster
// peers for write failover, returned separately so the summary can
// read its redirect counters), or the profile instantiated in-process
// over the real clock.
func buildService(cfg Config) (service.Service, *httpapi.Client, error) {
	if !cfg.InProc {
		cl, err := httpapi.NewClient(cfg.Addr, "conload", nil)
		if err != nil {
			return nil, nil, err
		}
		cl.SetPeers(cfg.Peers)
		mode, err := cluster.ParseReadMode(cfg.ReadMode)
		if err != nil {
			return nil, nil, err
		}
		cl.SetReadMode(mode)
		return cl, cl, nil
	}
	prof, err := service.ProfileByName(cfg.Service)
	if err != nil {
		return nil, nil, err
	}
	if cfg.APIDelay >= 0 {
		prof.APIDelay = cfg.APIDelay
	}
	net := simnet.DefaultTopology(cfg.Seed)
	svc, err := service.NewSimulated(vtime.Real{}, net, prof, cfg.Seed)
	return svc, nil, err
}

// run executes the load campaign and aggregates the summary.
func run(cfg Config) (*Summary, error) {
	svc, apiClient, err := buildService(cfg)
	if err != nil {
		return nil, err
	}
	runID := cfg.RunID
	if runID == "" {
		runID = fmt.Sprintf("load%d", time.Now().UnixNano())
	}

	reg := obs.NewRegistry()
	sc := reg.Scope("conload")
	wlat := sc.Histogram("write_seconds", "Write request latency.", nil)
	rlat := sc.Histogram("read_seconds", "Read request latency.", nil)
	errc := sc.Counter("errors_total", "Requests that returned an error.")

	// Per-user pacing interval for open-loop mode; zero means closed
	// loop.
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(cfg.Users) / cfg.Rate * float64(time.Second))
	}

	// SIGINT/SIGTERM drains gracefully: workers stop after their current
	// request and the summary reports the partial run as interrupted.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx, cancel := context.WithTimeout(sigCtx, cfg.Duration)
	defer cancel()
	// Spike users are always closed-loop — their job is to slam the
	// server past its admission limit — and stop after SpikeFor.
	spikeCtx := ctx
	if cfg.SpikeUsers > 0 && cfg.SpikeFor > 0 {
		var spikeCancel context.CancelFunc
		spikeCtx, spikeCancel = context.WithTimeout(ctx, cfg.SpikeFor)
		defer spikeCancel()
	}
	start := time.Now()
	total := cfg.Users + cfg.SpikeUsers
	per := make([]workerStats, total)
	var wg sync.WaitGroup
	for u := 0; u < total; u++ {
		wctx, uinterval := ctx, interval
		if u >= cfg.Users {
			wctx, uinterval = spikeCtx, 0
		}
		wg.Add(1)
		go func(ctx context.Context, u int, interval time.Duration) {
			defer wg.Done()
			ws := &per[u]
			uk := detrand.NewKey(cfg.Seed, "conload").Uint(uint64(u))
			reader := fmt.Sprintf("loaduser%d", u)
			next := start
			for i := 0; ctx.Err() == nil; i++ {
				if interval > 0 {
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						select {
						case <-ctx.Done():
							return
						case <-time.After(d):
						}
					}
				}
				k := uk.Uint(uint64(i))
				site := cfg.Sites[k.Str("site").Intn(int64(len(cfg.Sites)))]
				t0 := time.Now()
				if k.Str("op").Float64() < cfg.WriteRatio {
					p := service.Post{
						ID:     fmt.Sprintf("%s-u%d-%d", runID, u, i),
						Author: reader,
						Body:   "conload",
					}
					// The client itself follows X-Cluster-Leader hints and, with
					// -peers, re-discovers the leader after a failover; its
					// RedirectStats land in the summary after the run.
					err := svc.Write(site, p)
					lat := time.Since(t0).Seconds()
					ws.writes++
					ws.writeLat = append(ws.writeLat, lat)
					wlat.Observe(lat)
					ws.note(err, errc)
				} else {
					_, err := svc.Read(site, reader)
					lat := time.Since(t0).Seconds()
					ws.reads++
					ws.readLat = append(ws.readLat, lat)
					rlat.Observe(lat)
					ws.note(err, errc)
				}
			}
		}(wctx, u, uinterval)
	}
	wg.Wait()
	elapsed := time.Since(start)
	interrupted := sigCtx.Err() != nil

	sum := &Summary{
		Service:         svc.Name(),
		Target:          cfg.Addr,
		Users:           cfg.Users,
		DurationSeconds: elapsed.Seconds(),
		TargetRPS:       cfg.Rate,
		WriteRatio:      cfg.WriteRatio,
		Interrupted:     interrupted,
		SpikeUsers:      cfg.SpikeUsers,
	}
	if cfg.InProc {
		sum.Target = "inproc"
	}
	for _, s := range cfg.Sites {
		sum.Sites = append(sum.Sites, string(s))
	}
	var allW, allR []float64
	for i := range per {
		ws := &per[i]
		sum.Writes += ws.writes
		sum.Reads += ws.reads
		sum.Errors += ws.errors
		sum.Shed += ws.shed
		sum.Unavailable += ws.unavailable
		allW = append(allW, ws.writeLat...)
		allR = append(allR, ws.readLat...)
	}
	if apiClient != nil {
		rs := apiClient.RedirectStats()
		sum.RedirectedWrites = rs.RedirectedWrites
		sum.RedirectRetriesOK = rs.RedirectRetriesOK
		if cfg.ReadMode != "" && cfg.ReadMode != string(cluster.ReadLocal) {
			st := apiClient.ReadStats()
			sum.ReadMode = cfg.ReadMode
			sum.LeaseReads = st.Lease
			sum.QuorumReads = st.Quorum
			sum.RedirectedReads = st.RedirectedReads
		}
	}
	sum.Requests = sum.Writes + sum.Reads
	if elapsed > 0 {
		sum.ThroughputRPS = float64(sum.Requests) / elapsed.Seconds()
	}
	sum.WriteLatencyMS = summarizeLatency(allW)
	sum.ReadLatencyMS = summarizeLatency(allR)

	var mb strings.Builder
	if err := reg.Snapshot().WriteJSON(&mb); err != nil {
		return nil, err
	}
	sum.Metrics = json.RawMessage(mb.String())
	return sum, nil
}

// summarizeLatency reduces raw second-valued samples to millisecond
// percentiles via the stats package.
func summarizeLatency(samples []float64) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	ms := func(s float64) float64 { return s * 1000 }
	maxv := samples[0]
	for _, s := range samples {
		if s > maxv {
			maxv = s
		}
	}
	return LatencySummary{
		Count: len(samples),
		Mean:  ms(stats.Mean(samples)),
		P50:   ms(stats.Percentile(samples, 50)),
		P90:   ms(stats.Percentile(samples, 90)),
		P99:   ms(stats.Percentile(samples, 99)),
		Max:   ms(maxv),
	}
}
