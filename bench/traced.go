package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// layerDef names one per-layer metric: BENCHMARK.json lists exactly
// these, and a traced run reports every one of them, as zero when the
// workload never enters the layer.
type layerDef struct {
	Name, Unit, Better string
}

// layerDefs is the ladder, bottom-up by stack. README.md says which
// end-to-end metric each rung should move.
var layerDefs = []layerDef{
	{"host.fsync_us_p50", "us", "lower"},
	{"host.nproc", "count", "higher"},

	{"vtime.sleep_wake_ns", "ns", "lower"},
	{"vtime.timer_fire_ns", "ns", "lower"},
	{"simnet.delay_draw_ns", "ns", "lower"},
	{"store.write_us", "us", "lower"},
	{"store.read_us", "us", "lower"},
	{"store.read_us_1k", "us", "lower"},
	{"store.durable_write_us_p50", "us", "lower"},
	{"service.write_us", "us", "lower"},
	{"service.read_us", "us", "lower"},
	{"service.calls_per_test", "count", "lower"},
	{"probe.run_ms_per_test", "ms", "lower"},
	{"probe.sim_share", "ratio", "lower"},
	{"probe.empty_run_ms", "ms", "lower"},
	{"probe.speedup_p2_over_p1", "ratio", "higher"},
	{"core.check_us_per_test", "us", "lower"},
	{"core.stream_us_per_test", "us", "lower"},
	{"analysis.add_us_per_test", "us", "lower"},
	{"analysis.merge_ms", "ms", "lower"},
	{"analysis.snapshot_us", "us", "lower"},
	{"trace.encode_us_per_test", "us", "lower"},
	{"trace.decode_us_per_test", "us", "lower"},
	{"trace.bytes_per_test", "B", "lower"},
	{"checkpoint.append_us_p50", "us", "lower"},
	{"checkpoint.bytes_per_test", "B", "lower"},
	{"checkpoint.fsyncs_per_test", "count", "lower"},
	{"checkpoint.rotate_ms", "ms", "lower"},
	{"checkpoint.load_ms_per_1k", "ms", "lower"},

	{"wal.append_sync_us_p50", "us", "lower"},
	{"wal.append_nosync_us_p50", "us", "lower"},
	{"wal.append_sync_us_p50_c2", "us", "lower"},
	{"wal.fsyncs_per_append_c2", "count", "lower"},
	{"wal.bytes_per_append", "B", "lower"},
	{"wal.fsyncs_per_write", "count", "lower"},
	{"wal.bytes_per_write", "B", "lower"},
	{"wal.replay_ms_per_10k", "ms", "lower"},
	{"wal.snapshot_write_ms_1mb", "ms", "lower"},
	{"wal.snapshot_read_ms_1mb", "ms", "lower"},
	{"cluster.write_standalone_us_p50", "us", "lower"},
	{"cluster.propose_us_p50", "us", "lower"},
	{"cluster.quorum_wait_ms_p50", "ms", "lower"},
	{"cluster.commit_ms_p50", "ms", "lower"},
	{"cluster.read_local_us_p50", "us", "lower"},
	{"cluster.read_lease_us_p50", "us", "lower"},
	{"cluster.read_quorum_ms_p50", "ms", "lower"},
	{"cluster.lease_hit_ratio", "ratio", "higher"},
	{"cluster.compaction_stall_us", "us", "lower"},
	{"cluster.pull_rpcs_per_write", "count", "lower"},
	{"cluster.heartbeat_rpcs_per_s", "1/s", "lower"},
	{"cluster.rpc_bytes_per_write", "B", "lower"},
	{"cluster.pull_handle_us_p50", "us", "lower"},
	{"cluster.heartbeat_handle_us_p50", "us", "lower"},
	{"cluster.follower_lag_ms_p50", "ms", "lower"},
	{"cluster.steady_leader_changes", "count", "lower"},
	{"cluster.detect_ms_p50", "ms", "lower"},
	{"cluster.elect_ms_p50", "ms", "lower"},
	{"cluster.first_ack_ms_p50", "ms", "lower"},
	{"cluster.elections_per_kill", "count", "lower"},
	{"cluster.elections_no_winner", "count", "lower"},
	{"cluster.recover_open_ms", "ms", "lower"},
	{"cluster.restart_catchup_ms_p50", "ms", "lower"},
	{"cluster.snapshot_install_ms", "ms", "lower"},
	{"cluster.sim_rpcs_per_write", "count", "lower"},
	{"cluster.sim_fsyncs_per_write", "count", "lower"},
	{"cluster.sim_journal_bytes_per_write", "B", "lower"},
	{"cluster.sim_commit_vms_p50", "ms", "lower"},
	{"cluster.sim_rpcs_per_quorum_read", "count", "lower"},
	{"cluster.sim_failover_vms_p50", "ms", "lower"},
	{"httpapi.write_rtt_us_p50", "us", "lower"},
	{"httpapi.read_rtt_us_p50", "us", "lower"},
	{"httpapi.read_bytes", "B", "lower"},
	{"httpapi.server_handle_us_p50", "us", "lower"},
	{"httpapi.redirects_per_kill", "count", "lower"},

	{"client.ops_per_s", "1/s", "higher"},
	{"client.op_ms_p50", "ms", "lower"},
	{"client.op_ms_p90", "ms", "lower"},
	{"client.op_ms_ptail", "ms", "lower"},
	{"client.op_ptail_pct", "pct", "higher"},
	{"client.read_ms_p50", "ms", "lower"},
	{"client.outage_ms_p50", "ms", "lower"},
	{"client.fault_writes_attempted", "count", "higher"},
	{"client.fault_writes_failed", "count", "lower"},
	{"proc.heap_peak_mb", "MB", "lower"},
	{"proc.gc_pause_ms_total", "ms", "lower"},
	{"bench.gen_lateness_ms_p50", "ms", "lower"},
	{"bench.trace_overhead_pct", "pct", "lower"},
	{"decomp.node_write_residual_pct", "pct", "lower"},
}

// plainWindows is how many windows a traced run times with the recorder
// off before the one it traces.
const plainWindows = 3

// runTraced makes the traced run: the direct layer probes in a quiet
// process, then the workload with its warm-up, a few windows with the
// recorder off and one with it on, then whatever traced-only phases the
// workload has.
func runTraced(name string, e *env) (*result, error) {
	start := time.Now()
	res := &result{Workload: name, Metrics: newMetrics()}
	m := res.Metrics
	if err := layerProbes(e, m); err != nil {
		return nil, err
	}

	e.rec = newRecorder()
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	if err := w.setup(e); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	// The wall-clock figures come from windows with the recorder off.
	var plain []measured
	for k := 0; k < e.count(plainWindows, 1); k++ {
		pw, err := timedWindow(w, e)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced window %d: %w", name, k+1, err)
		}
		plain = append(plain, pw)
	}
	if !reportWindows(plain, newMetrics(), m) {
		res.Problems = append(res.Problems, "no operation completed")
	}
	e.rec.on.Store(true)
	traced, err := timedWindow(w, e)
	if err != nil {
		return nil, fmt.Errorf("%s: traced window: %w", name, err)
	}
	res.Attempted, res.Failed = traced.attempted, traced.failed
	if a := m.byName["client.ops_per_s"].Value; a > 0 && traced.ops > 0 {
		m.set("bench.trace_overhead_pct", 100*(a-float64(traced.ops)/traced.elapsed.Seconds())/a, "pct", 1)
	}
	if err := w.layers(e, m); err != nil {
		return nil, fmt.Errorf("%s: traced phases: %w", name, err)
	}
	if err := w.check(e); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("proc.heap_peak_mb", float64(mem.HeapSys)/(1<<20), "MB", 1)
	m.set("proc.gc_pause_ms_total", float64(mem.PauseTotalNs)/1e6, "ms", int(mem.NumGC))
	for _, d := range layerDefs {
		if _, ok := m.byName[d.Name]; !ok {
			m.set(d.Name, 0, d.Unit, 0)
		}
	}
	spans := e.rec.snapshot()
	path := filepath.Join(e.dir, name+".spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	res.Spans = summarize(spans)
	res.SpanFile = path
	res.Wall = time.Since(start)
	return res, nil
}

// printSpans prints the self-time table of a traced run.
func printSpans(res *result) {
	if len(res.Spans) == 0 {
		return
	}
	names := make([]string, 0, len(res.Spans))
	for n := range res.Spans {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return res.Spans[names[i]].Self > res.Spans[names[j]].Self })
	fmt.Printf("  spans (%s)\n  %-28s %8s %12s %12s %10s\n", res.SpanFile, "name", "count", "total_ms", "self_ms", "p50_us")
	for _, n := range names {
		s := res.Spans[n]
		fmt.Printf("  %-28s %8d %12.2f %12.2f %10.1f\n", n, s.Count, ms(s.Total), ms(s.Self), p50(s.durs, us))
	}
}
