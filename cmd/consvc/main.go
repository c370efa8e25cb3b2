// Command consvc serves one of the simulated service profiles over the
// JSON HTTP API, in real time. It is the counterpart of the live-probing
// path: agents anywhere on the network can probe it with the httpapi
// client (or plain curl), including the /time endpoint used for clock
// synchronization.
//
// The -inject-* flags wrap the service in the deterministic fault
// injector, turning consvc into a drill target for the resilient
// probing path (conwatch -retries, conprobe live campaigns). They are
// refused with -role, -peers or -join: a write failure injected inside
// one cluster node's replica would make that node skip a committed op
// the other nodes apply, and a restart replays committed ops through
// the injector. So an injecting consvc is always memory-only. The
// -disk-fault flag does the same one layer down, on a cluster node (a
// memory-only consvc writes no file and refuses it): it arms deterministic
// storage faults (torn writes, failed fsyncs, read bit flips, ENOSPC,
// omitted directory syncs, failed renames) beneath the node's WAL,
// term log and log compactions — e.g. -disk-fault term:fsync-gate —
// and recovery quarantines damaged files to .corrupt sidecars rather
// than dying or serving silently wrong state. A leader without peers
// has nobody to re-source a damaged oplog from, so it refuses to boot
// on one instead, naming the file.
//
// Cluster mode replicates the write stream across nodes: the elected
// leader journals every accepted write to a WAL (fsync before ack),
// acks it only once a write quorum of replicas has fsynced it, and
// appends the indexed op stream to every member over /cluster/ (a node
// it does not address — a -leader-url replica, a joiner — pulls the same
// appends); followers apply it monotonically and answer reads from
// their own replica.
// Give every node the full member list via -self-url/-peers and the
// cluster elects its own leader: kill -9 the leader and the survivors
// vote in a new one within an election timeout, losing no acked write.
// A killed node recovers from its WAL in -data-dir and rejoins as
// a follower. The durable standalone store is a one-node cluster:
// -role leader -node-id <id> -data-dir <dir>, with no -peers.
//
// The membership is dynamic: a new node started with -join <member-url>
// asks the cluster to vote it in (joint consensus; no peer-list edits
// on the running members), and POST /cluster/reconfigure removes
// members. GET /posts?mode=lease|quorum serves linearizable reads —
// lease-based at the leader, read-index quorum rounds otherwise — through
// the same admission and rate limit as every other request; a read that
// names no mode is the node's local replica.
//
// Usage:
//
//	consvc -service fbgroup -addr :8080 -rate 10 -seed 1
//	consvc -service blogger -inject-read-fail 0.2 -inject-write-fail 0.1
//	consvc -role leader -node-id n1 -data-dir /var/lib/consvc
//	consvc -node-id n1 -addr :8081 -data-dir /var/lib/consvc1 \
//	       -self-url http://localhost:8081 \
//	       -peers http://localhost:8082,http://localhost:8083 \
//	       -election-timeout 1s -heartbeat-interval 100ms
//
// Example session:
//
//	curl -H 'X-Client-Site: oregon' -d '{"id":"m1","author":"a1"}' localhost:8080/posts
//	curl -H 'X-Client-Site: tokyo'  localhost:8080/posts?reader=a2
//	curl -H 'X-Client-Site: tokyo'  'localhost:8081/posts?reader=a2&mode=lease'
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"conprobe/internal/cliflags"
	"conprobe/internal/cluster"
	"conprobe/internal/diskfault"
	"conprobe/internal/faultinject"
	"conprobe/internal/httpapi"
	"conprobe/internal/obs"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

func main() {
	srv, name, err := build(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "consvc:", err)
		os.Exit(1)
	}
	log.Printf("consvc: serving %s on %s", name, srv.Addr)
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "consvc:", err)
		os.Exit(1)
	}
}

// build assembles the HTTP server from flags.
func build(args []string) (*http.Server, string, error) {
	fs := flag.NewFlagSet("consvc", flag.ContinueOnError)
	var (
		svcName = cliflags.Service(fs, cliflags.DefaultService)
		addr    = fs.String("addr", ":8080", "listen address")
		rate    = fs.Float64("rate", 20, "per-client requests/second (0 = unlimited)")
		seed    = cliflags.Seed(fs)
		jitter  = fs.Float64("jitter", 0.1, "network jitter fraction")
		maxBody = fs.Int64("max-body", httpapi.DefaultMaxBodyBytes, "POST body size cap in bytes (negative = unlimited)")

		maxInflight = fs.Int("max-inflight", 0, "concurrent /posts requests admitted into the service (0 = unlimited)")
		maxQueue    = fs.Int("max-queue", 0, "requests allowed to wait for an inflight slot; overflow is shed with 429")
		retryAfter  = fs.Duration("retry-after", time.Second, "Retry-After hint sent on shed and rate-limited responses")

		inject = cliflags.InjectFlags(fs)

		pprofAddr = cliflags.Pprof(fs)

		role         = fs.String("role", "", "cluster role hint: leader bootstraps a pristine cluster (or runs standalone without -peers); empty/follower joins and elects")
		nodeID       = fs.String("node-id", "", "cluster node name (required for cluster mode)")
		leaderURL    = fs.String("leader-url", "", "leader base URL for a legacy pull-only follower (no -peers); with -peers it is just a starting hint")
		selfURL      = fs.String("self-url", "", "this node's own base URL, announced to peers in votes and heartbeats (required with -peers)")
		peers        = fs.String("peers", "", "comma-separated base URLs of the other cluster members; enables leader election")
		dataDir      = fs.String("data-dir", "", "cluster node's persistence directory (oplog and term log); needs -role, -peers or -join — a durable standalone store is -role leader -node-id <id> -data-dir <dir>")
		pullInterval = fs.Duration("pull-interval", 250*time.Millisecond, "catch-up poll period of a joining or pure-pull follower")
		snapEvery    = fs.Int("snapshot-every", 256, "checkpoint the cluster oplog after this many ops: a commit record, and a rewrite once dead records outnumber live ones")
		election     = cliflags.ElectionFlags(fs)
		diskFaults   = cliflags.DiskFaults(fs)
		join         = fs.String("join", "", "existing cluster member base URL: boot as a non-voting puller and keep asking the leader to add this node to the membership (requires -node-id and -self-url; excludes -peers)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	prof, err := service.ProfileByName(*svcName)
	if err != nil {
		return nil, "", err
	}
	// Metrics are always on: the registry is dependency-free and the hot
	// path is a few atomic ops. GET /metrics serves the Prometheus text
	// form (JSON with ?format=json) alongside the API.
	reg := obs.NewRegistry()
	sc := reg.Scope("consvc")
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	clustered := *role != "" || len(peerList) > 0 || *join != ""
	faults, injecting := inject.Config()
	if injecting && clustered {
		return nil, "", fmt.Errorf("-inject-* is for the memory-only standalone server: a failure injected inside one cluster node's replica would make it skip a committed op the other nodes apply")
	}
	if *dataDir != "" && !clustered {
		return nil, "", fmt.Errorf("-data-dir persists a cluster node and needs -role, -peers or -join; a durable standalone store is -role leader -node-id <id> -data-dir %s", *dataDir)
	}
	if len(*diskFaults) > 0 && !clustered {
		return nil, "", fmt.Errorf("-disk-fault arms faults beneath a cluster node's files and needs -role, -peers or -join; without them consvc writes no file")
	}
	// -disk-fault drills run every durable layer through the fault
	// injector's filesystem; without the flag, diskFS stays nil and the
	// layers use the real OS filesystem.
	var diskFS diskfault.FS
	if inj, err := diskFaults.Injector(sc.Sub("diskfault"), *seed); err != nil {
		return nil, "", err
	} else if inj != nil {
		diskFS = inj.FS()
		log.Printf("consvc: disk-fault drills armed: %s", diskFaults.String())
	}
	// Real clock: the profile's replication delays and latencies play
	// out in wall-clock time.
	clock := vtime.Real{}
	net := simnet.DefaultTopology(*seed, simnet.WithJitter(*jitter))
	var svc service.Service
	svc, err = service.NewSimulated(clock, net, prof, *seed)
	if err != nil {
		return nil, "", err
	}
	faults.Seed = *seed
	if faults.Enabled() {
		if err := faults.Validate(); err != nil {
			return nil, "", err
		}
		inj := faultinject.New(svc, clock, faults)
		inj.Instrument(sc.Sub("faultinject"))
		svc = inj
		log.Printf("consvc: fault injection active: %+v", faults)
	}
	if *join != "" {
		if *nodeID == "" || *selfURL == "" {
			return nil, "", fmt.Errorf("-join requires -node-id and -self-url")
		}
		if len(peerList) > 0 {
			return nil, "", fmt.Errorf("-join and -peers are exclusive: a joiner learns the membership from the cluster, not from flags")
		}
		if *leaderURL == "" {
			*leaderURL = *join
		}
	}
	var node *cluster.Node
	if clustered {
		node, err = cluster.NewNode(svc, cluster.Config{
			NodeID:            *nodeID,
			Role:              *role,
			LeaderURL:         *leaderURL,
			SelfURL:           *selfURL,
			Peers:             peerList,
			DataDir:           *dataDir,
			PullInterval:      *pullInterval,
			SnapshotEvery:     *snapEvery,
			ElectionTimeout:   *election.ElectionTimeout,
			HeartbeatInterval: *election.HeartbeatInterval,
			Quorum:            *election.Quorum,
			ClockSkew:         *election.ClockSkew,
			Seed:              *seed,
			Clock:             clock,
			FS:                diskFS,
			Metrics:           sc.Sub("cluster"),
			// Elections are the events an operator greps the log for; the
			// hook only formats and returns, as the contract requires.
			OnEvent: func(ev cluster.Event) {
				if ev.Type == cluster.EventCommit {
					return // per-write noise; elections are what the log is for
				}
				log.Printf("consvc: cluster event %s term=%d idx=%d %s", ev.Type, ev.Term, ev.Index, ev.Detail)
			},
		})
		if err != nil {
			return nil, "", err
		}
		svc = node
		log.Printf("consvc: cluster node %s role=%q self=%q peers=%q election-timeout=%v heartbeat=%v quorum=%d",
			*nodeID, *role, *selfURL, *peers, *election.ElectionTimeout, *election.HeartbeatInterval, *election.Quorum)
		if *join != "" {
			go joinCluster(node, *join, *nodeID, *selfURL)
		}
	}
	var handler http.Handler = httpapi.NewServer(svc, httpapi.ServerConfig{
		Clock:         clock,
		RatePerSecond: *rate,
		MaxBodyBytes:  *maxBody,
		MaxInflight:   *maxInflight,
		MaxQueue:      *maxQueue,
		RetryAfter:    *retryAfter,
		Metrics:       sc.Sub("httpapi"),
	})
	if node != nil {
		outer := http.NewServeMux()
		outer.Handle("/cluster/", node.Handler())
		outer.Handle("/", handler)
		handler = outer
	}
	if *pprofAddr != "" {
		pa := *pprofAddr
		go func() {
			log.Printf("consvc: pprof on %s", pa)
			if err := http.ListenAndServe(pa, obs.PProfMux()); err != nil {
				log.Printf("consvc: pprof: %v", err)
			}
		}()
	}
	return httpapi.Hardened(*addr, handler), prof.Name, nil
}

// joinCluster keeps asking the cluster to add this node to the voting
// membership until the node's own replicated configuration says it is
// in. The request chases 421 leader hints; everything else (leader
// mid-election, a reconfiguration already in flight, the target briefly
// down) is just retried — joint consensus makes the add idempotent, and
// the authoritative success signal is the committed config arriving
// over replication, not any HTTP status.
func joinCluster(node *cluster.Node, join, nodeID, selfURL string) {
	hc := &http.Client{Timeout: 5 * time.Second}
	body, err := json.Marshal(cluster.ReconfigureRequest{
		Add: []cluster.Member{{ID: nodeID, URL: selfURL}},
	})
	if err != nil {
		log.Printf("consvc: join: encoding reconfigure request: %v", err)
		return
	}
	target := join
	for attempt := 0; ; attempt++ {
		// The boot config of a peerless joiner is {self} — membership only
		// counts once a replicated config with the rest of the cluster in
		// it names this node.
		if m := node.Membership(); m.InNew(selfURL) && len(m.New) > 1 {
			log.Printf("consvc: joined the cluster membership as %s (%s)", nodeID, selfURL)
			return
		}
		if attempt > 0 {
			time.Sleep(2 * time.Second)
		}
		resp, err := hc.Post(target+"/cluster/reconfigure", "application/json", bytes.NewReader(body))
		if err != nil {
			target = join // the hinted node may be gone; start over
			continue
		}
		hint := resp.Header.Get("X-Cluster-Leader")
		code := resp.StatusCode
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		_ = resp.Body.Close()
		if code == http.StatusMisdirectedRequest && hint != "" && hint != selfURL {
			target = hint
		}
	}
}
