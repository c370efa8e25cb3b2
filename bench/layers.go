package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"conprobe"
	"conprobe/internal/analysis"
	"conprobe/internal/checkpoint"
	"conprobe/internal/cluster"
	"conprobe/internal/core"
	"conprobe/internal/httpapi"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/store"
	"conprobe/internal/trace"
	"conprobe/internal/vtime"
	"conprobe/internal/wal"
)

// The direct layer probes: each times calls into one layer's exported
// functions, from here, with nothing else running. They are the rungs of
// the ladder the end-to-end figures decompose into; README.md says which
// end-to-end metric each should move. Every traced run makes all of
// them, so the figures of one run sit side by side.

// simStart is the virtual epoch the simulated probes start at.
var simStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// each times every one of n calls of fn.
func each(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0)
	}
	return out, nil
}

func p50(ds []time.Duration, conv func(time.Duration) float64) float64 {
	return percentile(durations(ds, conv), 50)
}

// payload256 is the record the wal probes append.
var payload256 = bytes.Repeat([]byte("x"), 256)

// layerProbes runs every direct probe and adds its figures to m.
func layerProbes(e *env, m *metrics) error {
	dir, err := e.mkdir("probes")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, p := range []struct {
		layer string
		run   func(e *env, dir string, m *metrics) error
	}{
		{"host", probeHost},
		{"vtime", probeVtime},
		{"simnet", probeSimnet},
		{"store", probeStore},
		{"service", probeService},
		{"campaign", probeCampaign},
		{"wal", probeWAL},
		{"httpapi", probeHTTPAPI},
		{"cluster standalone", probeStandalone},
		{"cluster snapshot install", probeSnapshotInstall},
		{"cluster 3-node", probeCluster},
		{"cluster cost model", probeCostModel},
	} {
		if err := p.run(e, dir, m); err != nil {
			return fmt.Errorf("%s probe: %w", p.layer, err)
		}
	}
	return nil
}

// probeHost measures the disk under -dir: a shifted fsync time explains
// a shifted node_rw before any code does.
func probeHost(e *env, dir string, m *metrics) error {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	ds, err := each(e.count(200, 20), func(int) error {
		if _, err := f.WriteAt(block, 0); err != nil {
			return err
		}
		return f.Sync()
	})
	if err != nil {
		return err
	}
	m.set("host.fsync_us_p50", p50(ds, us), "us", len(ds))
	m.set("host.nproc", float64(runtime.NumCPU()), "count", 1)
	return nil
}

func probeVtime(e *env, _ string, m *metrics) error {
	const actors = 8
	per := e.count(25000, 100)
	sim := vtime.NewSim(simStart)
	t0 := time.Now()
	for a := 0; a < actors; a++ {
		sim.Go(func() {
			for i := 0; i < per; i++ {
				sim.Sleep(time.Duration(1+(a+i)%5) * time.Millisecond)
			}
		})
	}
	sim.Wait()
	m.set("vtime.sleep_wake_ns", ns(time.Since(t0))/float64(actors*per), "ns", actors*per)

	timers := e.count(100000, 100)
	sim = vtime.NewSim(simStart)
	fired := 0
	t0 = time.Now()
	sim.Go(func() {
		for i := 1; i <= timers; i++ {
			sim.AfterFunc(time.Duration(i)*time.Millisecond, func() { fired++ })
		}
		sim.Sleep(time.Duration(timers+1) * time.Millisecond)
	})
	sim.Wait()
	if fired != timers {
		return fmt.Errorf("%d of %d timers fired", fired, timers)
	}
	m.set("vtime.timer_fire_ns", ns(time.Since(t0))/float64(timers), "ns", timers)
	return nil
}

func probeSimnet(e *env, _ string, m *metrics) error {
	net := simnet.DefaultTopology(e.seed)
	n := e.count(500000, 100)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := net.OneWayU(simnet.Oregon, simnet.DCEast, float64(i%1000)/1000); err != nil {
			return err
		}
	}
	m.set("simnet.delay_draw_ns", ns(time.Since(t0))/float64(n), "ns", n)
	return nil
}

// probeStore drives the replicated store the Facebook Group profile
// uses, from one actor of a simulator.
func probeStore(e *env, dir string, m *metrics) error {
	cfg := service.FBGroup().Store
	inSim := func(cfg store.Config, body func(c *store.Cluster) error) error {
		sim := vtime.NewSim(simStart)
		c, err := store.NewCluster(sim, simnet.DefaultTopology(e.seed), cfg, e.seed)
		if err != nil {
			return err
		}
		defer c.Close()
		sim.Go(func() { err = body(c) })
		sim.Wait()
		return err
	}
	dc := cfg.Sites[0]
	rounds := e.count(2000, 5)
	var writes, reads, reads1k time.Duration
	err := inSim(cfg, func(c *store.Cluster) error {
		for r := 0; r < rounds; r++ {
			c.Reset()
			t0 := time.Now()
			for i := 0; i < 6; i++ {
				if _, err := c.Write(dc, fmt.Sprintf("m%d-%d", r, i), "a", ""); err != nil {
					return err
				}
			}
			t1 := time.Now()
			for i := 0; i < 6; i++ {
				if _, err := c.Read(dc); err != nil {
					return err
				}
			}
			writes += t1.Sub(t0)
			reads += time.Since(t1)
		}
		c.Reset()
		for i := 0; i < 1000; i++ {
			if _, err := c.Write(dc, fmt.Sprintf("k%d", i), "a", ""); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := c.Read(dc); err != nil {
				return err
			}
		}
		reads1k = time.Since(t0)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("store.write_us", us(writes)/float64(6*rounds), "us", 6*rounds)
	m.set("store.read_us", us(reads)/float64(6*rounds), "us", 6*rounds)
	m.set("store.read_us_1k", us(reads1k)/float64(rounds), "us", rounds)

	cfg.Durable = &store.Durable{Dir: filepath.Join(dir, "store")}
	var ds []time.Duration
	err = inSim(cfg, func(c *store.Cluster) (err error) {
		ds, err = each(e.count(200, 10), func(i int) error {
			_, err := c.Write(dc, fmt.Sprintf("d%d", i), "a", "")
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	m.set("store.durable_write_us_p50", p50(ds, us), "us", len(ds))
	return nil
}

func probeService(e *env, _ string, m *metrics) error {
	sim := vtime.NewSim(simStart)
	svc, err := service.NewSimulated(sim, simnet.DefaultTopology(e.seed), service.FBGroup(), e.seed)
	if err != nil {
		return err
	}
	rounds := e.count(1000, 5)
	var writes, reads time.Duration
	sim.Go(func() {
		for r := 0; r < rounds && err == nil; r++ {
			if err = svc.Reset(); err != nil {
				return
			}
			t0 := time.Now()
			for i := 0; i < 6 && err == nil; i++ {
				err = svc.Write(simnet.Oregon, service.Post{ID: fmt.Sprintf("m%d-%d", r, i), Author: "agent1"})
			}
			t1 := time.Now()
			for i := 0; i < 6 && err == nil; i++ {
				_, err = svc.Read(simnet.Oregon, "agent1")
			}
			writes += t1.Sub(t0)
			reads += time.Since(t1)
		}
	})
	sim.Wait()
	if err != nil {
		return err
	}
	m.set("service.write_us", us(writes)/float64(6*rounds), "us", 6*rounds)
	m.set("service.read_us", us(reads)/float64(6*rounds), "us", 6*rounds)
	return nil
}

// probeCampaign runs one small retained-trace campaign at one and at P
// workers, then replays its traces through each of the layers a
// campaign spends its time in besides simulating: checking, aggregating,
// encoding and journaling.
func probeCampaign(e *env, dir string, m *metrics) error {
	perKind := e.count(100, 4)
	tests := 2 * perKind
	opts := func(par int) conprobe.Options {
		return conprobe.Options{
			Workload: conprobe.Workload{Service: conprobe.ServiceFBGroup, Test1Count: perKind, Test2Count: perKind, Seed: e.seed},
			Engine:   conprobe.Engine{Parallelism: par},
		}
	}
	if _, err := conprobe.Run(context.Background(), opts(e.p)); err != nil { // warm-up
		return err
	}
	t0 := time.Now()
	res, err := conprobe.Run(context.Background(), opts(1))
	if err != nil {
		return err
	}
	serial := time.Since(t0)
	t0 = time.Now()
	if _, err := conprobe.Run(context.Background(), opts(2)); err != nil {
		return err
	}
	parallel := time.Since(t0)
	one := opts(1)
	one.Workload.Test1Count, one.Workload.Test2Count = 1, 0
	t0 = time.Now()
	if _, err := conprobe.Run(context.Background(), one); err != nil {
		return err
	}
	m.set("probe.empty_run_ms", ms(time.Since(t0)), "ms", 1)
	m.set("probe.run_ms_per_test", ms(serial)/float64(tests), "ms", tests)
	m.set("probe.speedup_p2_over_p1", serial.Seconds()/parallel.Seconds(), "ratio", 1)
	traces := res.Traces
	if len(traces) != tests {
		return fmt.Errorf("campaign kept %d traces, want %d", len(traces), tests)
	}

	const reps = 3
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, tr := range traces {
			core.CheckTest(tr)
		}
	}
	m.set("core.check_us_per_test", us(time.Since(t0))/float64(reps*tests), "us", reps*tests)
	stream := core.NewStream()
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, tr := range traces {
			stream.Reset()
			for _, w := range tr.Writes {
				stream.ObserveWrite(w)
			}
			for _, rd := range tr.Reads {
				stream.ObserveRead(rd)
			}
		}
	}
	m.set("core.stream_us_per_test", us(time.Since(t0))/float64(reps*tests), "us", reps*tests)

	lanes := make([]*analysis.Aggregator, probe.DefaultLanes)
	for i := range lanes {
		lanes[i] = analysis.NewAggregator(conprobe.ServiceFBGroup)
	}
	t0 = time.Now()
	for _, tr := range traces {
		lanes[tr.TestID%len(lanes)].Add(tr)
	}
	add := time.Since(t0)
	m.set("analysis.add_us_per_test", us(add)/float64(tests), "us", tests)
	// What a campaign does besides checking and aggregating its traces is
	// simulating the world that produces them.
	m.set("probe.sim_share", 1-add.Seconds()/serial.Seconds(), "ratio", tests)
	t0 = time.Now()
	analysis.MergeAggregators(conprobe.ServiceFBGroup, lanes)
	m.set("analysis.merge_ms", ms(time.Since(t0)), "ms", 1)
	snaps := e.count(50, 2)
	t0 = time.Now()
	for i := 0; i < snaps; i++ {
		if _, err := lanes[0].Snapshot(); err != nil {
			return err
		}
	}
	m.set("analysis.snapshot_us", us(time.Since(t0))/float64(snaps), "us", snaps)

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	t0 = time.Now()
	for _, tr := range traces {
		if err := w.Write(tr); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	m.set("trace.encode_us_per_test", us(time.Since(t0))/float64(tests), "us", tests)
	m.set("trace.bytes_per_test", float64(buf.Len())/float64(tests), "B", tests)
	t0 = time.Now()
	back, err := trace.NewReader(&buf).ReadAll()
	if err != nil {
		return err
	}
	if len(back) != tests {
		return fmt.Errorf("decoded %d traces, want %d", len(back), tests)
	}
	m.set("trace.decode_us_per_test", us(time.Since(t0))/float64(tests), "us", tests)

	fs := newCountFS("checkpoint", nil, nil)
	path := filepath.Join(dir, "probe.ckpt")
	ck, err := checkpoint.Create(path, checkpoint.Meta{
		Service: conprobe.ServiceFBGroup, Seed: e.seed, Lanes: probe.DefaultLanes,
		Test1Count: perKind, Test2Count: perKind, Start: probe.DefaultStart,
	}, checkpoint.Config{KeepTraces: true, FS: fs})
	if err != nil {
		return err
	}
	before := fs.snapshot()
	var plain, rotations []time.Duration
	for _, tr := range traces {
		renames := fs.snapshot().Renames
		t0 := time.Now()
		if err := ck.Append(tr.TestID%probe.DefaultLanes, tr, tr.Started, nil); err != nil {
			return err
		}
		// An append that renamed a file compacted the journal.
		if d := time.Since(t0); fs.snapshot().Renames > renames {
			rotations = append(rotations, d)
		} else {
			plain = append(plain, d)
		}
	}
	if err := ck.Degraded(); err != nil {
		return err
	}
	if err := ck.Close(); err != nil {
		return err
	}
	did := fs.snapshot().sub(before)
	m.set("checkpoint.append_us_p50", p50(plain, us), "us", len(plain))
	m.set("checkpoint.rotate_ms", p50(rotations, ms), "ms", len(rotations))
	m.set("checkpoint.bytes_per_test", float64(did.Bytes)/float64(tests), "B", tests)
	m.set("checkpoint.fsyncs_per_test", float64(did.Syncs)/float64(tests), "count", tests)
	t0 = time.Now()
	st, err := checkpoint.Load(path)
	if err != nil {
		return err
	}
	if got := len(st.CompletedTraces()); got != tests {
		return fmt.Errorf("journal re-reads to %d traces, want %d", got, tests)
	}
	m.set("checkpoint.load_ms_per_1k", ms(time.Since(t0))*1000/float64(tests), "ms", tests)
	return nil
}

func probeWAL(e *env, dir string, m *metrics) error {
	appendAll := func(name string, opts wal.Options, n int) ([]time.Duration, error) {
		log, _, err := wal.Open(filepath.Join(dir, name), opts)
		if err != nil {
			return nil, err
		}
		defer log.Close()
		return each(n, func(int) error { return log.Append(payload256) })
	}
	fs := newCountFS("wal", nil, nil)
	ds, err := appendAll("sync.wal", wal.Options{FS: fs}, e.count(300, 10))
	if err != nil {
		return err
	}
	m.set("wal.append_sync_us_p50", p50(ds, us), "us", len(ds))
	m.set("wal.bytes_per_append", float64(fs.snapshot().Bytes)/float64(len(ds)), "B", len(ds))
	if ds, err = appendAll("nosync.wal", wal.Options{NoSync: true}, e.count(10000, 10)); err != nil {
		return err
	}
	m.set("wal.append_nosync_us_p50", p50(ds, us), "us", len(ds))
	t0 := time.Now()
	log, rep, err := wal.Open(filepath.Join(dir, "nosync.wal"), wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	took := time.Since(t0)
	log.Close()
	if len(rep.Records) != len(ds) {
		return fmt.Errorf("replayed %d records, want %d", len(rep.Records), len(ds))
	}
	m.set("wal.replay_ms_per_10k", ms(took)*10000/float64(len(ds)), "ms", len(ds))

	// Two appenders on one log: the group-commit ratio.
	fs = newCountFS("wal", nil, nil)
	shared, _, err := wal.Open(filepath.Join(dir, "c2.wal"), wal.Options{FS: fs})
	if err != nil {
		return err
	}
	defer shared.Close()
	per := e.count(200, 10)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var all []time.Duration
	var firstErr error
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine, err := each(per, func(int) error { return shared.Append(payload256) })
			mu.Lock()
			all = append(all, mine...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	m.set("wal.append_sync_us_p50_c2", p50(all, us), "us", len(all))
	m.set("wal.fsyncs_per_append_c2", float64(fs.snapshot().Syncs)/float64(len(all)), "count", len(all))

	snap := filepath.Join(dir, "probe.snap")
	payload := bytes.Repeat([]byte("s"), 1<<20)
	ds, err = each(e.count(5, 1), func(int) error { return wal.WriteSnapshot(snap, payload) })
	if err != nil {
		return err
	}
	m.set("wal.snapshot_write_ms_1mb", p50(ds, ms), "ms", len(ds))
	ds, err = each(e.count(5, 1), func(int) error {
		got, ok, err := wal.ReadSnapshot(snap)
		if err == nil && (!ok || len(got) != len(payload)) {
			err = fmt.Errorf("snapshot re-read %d bytes, want %d", len(got), len(payload))
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("wal.snapshot_read_ms_1mb", p50(ds, ms), "ms", len(ds))
	return nil
}

// probeHTTPAPI measures the facade alone: client to server to the
// in-memory service, no cluster and no disk.
func probeHTTPAPI(e *env, _ string, m *metrics) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var handle []time.Duration
	var readBytes int64
	api := httpapi.NewServer(&memSvc{}, httpapi.ServerConfig{})
	srv := httpapi.Hardened(ln.Addr().String(), http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		api.ServeHTTP(cw, r)
		d := time.Since(t0)
		mu.Lock()
		switch r.Method {
		case http.MethodPost:
			handle = append(handle, d)
		case http.MethodGet:
			readBytes = cw.n
		}
		mu.Unlock()
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	c, err := newBenchClient("http://"+ln.Addr().String(), nil, nil)
	if err != nil {
		return err
	}
	defer c.close()
	var writes []time.Duration
	rounds := e.count(10, 1)
	posts := genPosts(e.seed, "httpapi", roundPosts)
	for r := 0; r < rounds; r++ {
		if err := c.Reset(); err != nil {
			return err
		}
		ds, err := each(len(posts), func(i int) error { return c.Write(site, posts[i]) })
		if err != nil {
			return err
		}
		writes = append(writes, ds...)
	}
	reads, err := each(e.count(500, 5), func(int) error {
		got, err := c.Read(site, "bench")
		if err == nil {
			err = samePosts(got, posts)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("httpapi.write_rtt_us_p50", p50(writes, us), "us", len(writes))
	m.set("httpapi.read_rtt_us_p50", p50(reads, us), "us", len(reads))
	mu.Lock()
	m.set("httpapi.read_bytes", float64(readBytes), "B", 1)
	m.set("httpapi.server_handle_us_p50", p50(handle, us), "us", len(handle))
	mu.Unlock()
	return nil
}

// probeStandalone calls a standalone leader directly, no HTTP: the
// node's own share of a node_rw write.
func probeStandalone(e *env, dir string, m *metrics) error {
	fs := newCountFS("wal", nil, nil)
	node, err := cluster.NewNode(&memSvc{}, cluster.Config{
		NodeID: "solo", Role: cluster.RoleLeader, DataDir: filepath.Join(dir, "solo"), Seed: e.seed, FS: fs,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	// Enough writes to cross the default SnapshotEvery boundary (256 ops)
	// twice; a write that renamed a file is one that compacted.
	posts := genPosts(e.seed, "solo", e.count(600, 10))
	var plain, compacting []time.Duration
	for _, p := range posts {
		renames := fs.snapshot().Renames
		t0 := time.Now()
		if err := node.Write(site, p); err != nil {
			return err
		}
		if d := time.Since(t0); fs.snapshot().Renames > renames {
			compacting = append(compacting, d)
		} else {
			plain = append(plain, d)
		}
	}
	m.set("cluster.write_standalone_us_p50", p50(plain, us), "us", len(plain))
	if len(compacting) > 0 {
		m.set("cluster.compaction_stall_us", p50(compacting, us)-p50(plain, us), "us", len(compacting))
	}
	return nil
}

// probeSnapshotInstall times a fresh pull-follower catching up with a
// leader whose log is compacted away beneath it. The follower polls
// every 10 ms instead of the shipped 250 ms, so the figure is the
// install and not the timer.
func probeSnapshotInstall(e *env, dir string, m *metrics) error {
	leader, err := startServer("lead", "127.0.0.1:0", cluster.Config{
		NodeID: "lead", Role: cluster.RoleLeader, DataDir: filepath.Join(dir, "lead"), Seed: e.seed, NoSync: true,
	}, nil, nil)
	if err != nil {
		return err
	}
	defer leader.kill()
	for _, p := range genPosts(e.seed, "install", e.count(2000, 300)) {
		if err := leader.node.Write(site, p); err != nil {
			return err
		}
	}
	var events eventLog
	t0 := time.Now()
	follower, err := cluster.NewNode(&memSvc{}, cluster.Config{
		NodeID: "fresh", LeaderURL: leader.url, DataDir: filepath.Join(dir, "fresh"), Seed: e.seed,
		PullInterval: 10 * time.Millisecond, OnEvent: events.observe,
	})
	if err != nil {
		return err
	}
	defer follower.Kill()
	for follower.LastIndex() < leader.node.LastIndex() {
		if time.Since(t0) > waitLimit {
			return fmt.Errorf("follower at %d of %d after %v", follower.LastIndex(), leader.node.LastIndex(), waitLimit)
		}
		time.Sleep(200 * time.Microsecond)
	}
	took := time.Since(t0)
	if events.count(cluster.EventInstallSnapshot, t0) == 0 {
		return fmt.Errorf("follower caught up without installing a snapshot")
	}
	m.set("cluster.snapshot_install_ms", ms(took), "ms", 1)
	return nil
}

// probeCluster calls the leader of a three-node loopback cluster
// directly: the two halves of a commit, and the three read modes.
func probeCluster(e *env, _ string, m *metrics) error {
	quiet := *e
	quiet.rec = nil
	c := &cluster3{}
	defer c.teardown()
	if err := c.setup(&quiet); err != nil {
		return err
	}
	l, err := c.waitLeader()
	if err != nil {
		return err
	}
	node := c.srvs[l].node
	var propose, wait, commit []time.Duration
	for _, p := range genPosts(e.seed, "direct", e.count(12, 3)) {
		t0 := time.Now()
		idx, err := node.ProposeWrite(site, p)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := node.WaitCommitted(idx); err != nil {
			return err
		}
		t2 := time.Now()
		propose = append(propose, t1.Sub(t0))
		wait = append(wait, t2.Sub(t1))
		commit = append(commit, t2.Sub(t0))
	}
	m.set("cluster.propose_us_p50", p50(propose, us), "us", len(propose))
	m.set("cluster.quorum_wait_ms_p50", p50(wait, ms), "ms", len(wait))
	m.set("cluster.commit_ms_p50", p50(commit, ms), "ms", len(commit))

	local, err := each(e.count(1000, 10), func(int) error {
		_, err := node.Read(site, "bench")
		return err
	})
	if err != nil {
		return err
	}
	m.set("cluster.read_local_us_p50", p50(local, us), "us", len(local))
	hits := 0
	lease, err := each(e.count(1000, 10), func(int) error {
		_, used, err := node.ReadLinearizable(site, "bench", cluster.ReadLease)
		if used == cluster.ReadLease {
			hits++
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("cluster.read_lease_us_p50", p50(lease, us), "us", len(lease))
	m.set("cluster.lease_hit_ratio", float64(hits)/float64(len(lease)), "ratio", len(lease))
	quorum, err := each(e.count(10, 2), func(int) error {
		_, _, err := node.ReadLinearizable(site, "bench", cluster.ReadQuorum)
		return err
	})
	if err != nil {
		return err
	}
	m.set("cluster.read_quorum_ms_p50", p50(quorum, ms), "ms", len(quorum))
	return nil
}
