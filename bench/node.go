package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/service"
)

// roundPosts is how many (write, read) pairs follow each reset: the
// reset-between-tests shape conprobe gives a live service, which keeps
// the timeline a read returns at no more than this many posts.
const roundPosts = 32

// nodeRW is the single-node baseline: a standalone leader behind the
// HTTP facade, sync on, one closed-loop client.
type nodeRW struct {
	rounds int
	dir    string
	srv    *server
	client *benchClient
	posts  []service.Post
	// readLat is the reads' sample; client.op_ms_* is the writes'.
	readLat []time.Duration
	// lastRound is what the final round wrote, for the recovery check.
	lastRound  []service.Post
	fsAtWindow fsCounts
	writes     int
	// writeLat is the last window's write sample.
	writeLat []time.Duration
}

func (n *nodeRW) setup(e *env) error {
	n.rounds = e.scale(8, 1)
	dir, err := e.mkdir("node")
	if err != nil {
		return err
	}
	n.dir = dir
	n.posts = genPosts(e.seed, "node", n.rounds*roundPosts)
	fs := newCountFS("wal", e.rec, nil)
	n.srv, err = startServer("n1", "127.0.0.1:0", cluster.Config{
		NodeID: "n1", Role: cluster.RoleLeader, DataDir: filepath.Join(dir, "n1"), Seed: e.seed,
	}, fs, e.rec)
	if err != nil {
		return err
	}
	if n.client, err = newBenchClient(n.srv.url, nil, e.rec); err != nil {
		return err
	}
	_, err = n.window(e)
	return err
}

func (n *nodeRW) window(e *env) (windowResult, error) {
	var wr windowResult
	n.fsAtWindow = n.srv.fs.snapshot()
	t0 := time.Now()
	for r := 0; r < n.rounds; r++ {
		round := n.posts[r*roundPosts : (r+1)*roundPosts]
		wr.attempted++
		if _, err := n.client.call("reset", n.client.Reset); err != nil {
			return wr, fmt.Errorf("round %d reset: %w", r, err)
		}
		wr.ops++
		var got []service.Post
		for _, p := range round {
			wr.attempted += 2
			d, err := n.client.call("write", func() error { return n.client.Write(site, p) })
			if err != nil {
				return wr, fmt.Errorf("round %d write %s: %w", r, p.ID, err)
			}
			wr.ops++
			wr.lat = append(wr.lat, d)
			d, err = n.client.call("read", func() (rerr error) {
				got, rerr = n.client.Read(site, "bench")
				return rerr
			})
			if err != nil {
				return wr, fmt.Errorf("round %d read: %w", r, err)
			}
			wr.ops++
			n.readLat = append(n.readLat, d)
		}
		if err := samePosts(got, round); err != nil {
			return wr, fmt.Errorf("round %d: %w", r, err)
		}
		n.lastRound = round
	}
	wr.elapsed = time.Since(t0)
	n.writes = n.rounds * (roundPosts + 1)
	n.writeLat = wr.lat
	return wr, nil
}

// check is the durability test: kill the node, cut every file back to
// its last fsync, and recover. Every write the client saw acknowledged
// since the last reset must be there, in order.
func (n *nodeRW) check(e *env) error {
	n.client.close()
	n.srv.kill()
	cfg := cluster.Config{NodeID: "n1", Role: cluster.RoleLeader, DataDir: n.srv.dir, Seed: e.seed}
	srv := n.srv
	n.srv = nil
	if err := srv.fs.discardUnsynced(); err != nil {
		return fmt.Errorf("discarding unsynced bytes: %w", err)
	}
	svc := &memSvc{}
	node, err := cluster.NewNode(svc, cfg)
	if err != nil {
		return fmt.Errorf("recovering after the power cut: %w", err)
	}
	defer node.Close()
	got, err := node.Read(site, "bench")
	if err != nil {
		return err
	}
	if err := samePosts(got, n.lastRound); err != nil {
		return fmt.Errorf("after the power cut: %w", err)
	}
	return nil
}

func (n *nodeRW) teardown() {
	if n.client != nil {
		n.client.close()
	}
	if n.srv != nil {
		_ = n.srv.stop()
	}
	if n.dir != "" {
		_ = os.RemoveAll(n.dir)
	}
}

func (n *nodeRW) layers(e *env, m *metrics) error {
	fs := n.srv.fs.snapshot().sub(n.fsAtWindow)
	if n.writes > 0 {
		m.set("wal.fsyncs_per_write", float64(fs.Syncs)/float64(n.writes), "count", n.writes)
		m.set("wal.bytes_per_write", float64(fs.Bytes)/float64(n.writes), "B", n.writes)
	}
	m.set("client.read_ms_p50", p50(n.readLat, ms), "ms", len(n.readLat))
	// An uncontended write is the facade's round trip plus the node's own
	// write; what is left over is time the decomposition does not explain.
	write := p50(n.writeLat, us)
	explained := m.byName["httpapi.write_rtt_us_p50"].Value + m.byName["cluster.write_standalone_us_p50"].Value
	if write > 0 {
		m.set("decomp.node_write_residual_pct", 100*(write-explained)/write, "pct", len(n.writeLat))
	}
	return nil
}
