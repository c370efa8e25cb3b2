// Package cluster turns a single-node consvc service into a replicated
// deployment with term-based leader election and quorum-acknowledged
// writes. The leader assigns every accepted write and reset a
// monotonically increasing operation index, stamps it with its term,
// journals it to a WAL (fsync before publish) and appends it to every
// voting member's log on the heartbeat RPC; followers apply the stream
// monotonically and serve reads from their own replica — making
// follower lag a real, externally observable consistency phenomenon
// rather than a simulated one.
//
// Replication is leader-driven and rides the one RPC the protocol
// already had in both directions. A HeartbeatRequest carries
// (Prev, PrevTerm) and the entries after that position; its empty form
// is the periodic liveness announcement. The moment an op is published,
// and again as each reply is folded, the leader sends every member that
// is behind and has no append outstanding the entries it lacks — so
// proposals arriving while a request is in flight ride the next one as
// a batch. A follower appends only when (Prev, PrevTerm) is its own log
// head (entries it already holds are skipped by index and term, which
// makes duplicated, reordered and delayed deliveries harmless), with
// one WAL write and one fsync for the whole batch, and reports its new
// durable head in the HeartbeatResponse it was sending anyway: the ack
// is the reply. The leader never holds a timer heartbeat back behind an
// outstanding append; on the wire it queues behind the frames in flight,
// as the follower's lock always serialised them. Over HTTP the RPC rides
// one long-lived stream per follower (GET /cluster/append, upgraded;
// stream.go), with a POST per call where the follower refuses the
// upgrade; a silently dead connection is found by the reply deadline.
// The append is the one message that moves a follower's log: a member
// that cannot continue one replies with its head, and the leader sends
// the entries from there at once, or — where its log no longer holds
// that head — flags the append, and the member fetches the chunked
// snapshot. A voting member never pulls; a node the leader does not
// address (a pure-pull follower, a joiner, a removed member) polls
// /cluster/pull at PullInterval and is answered with that same append.
//
// Election (Raft-style): every node persists (currentTerm, votedFor) to
// its own WAL and fsyncs the record BEFORE granting a vote or
// campaigning, so a crash-restarted node can never vote twice in one
// term. A follower that misses heartbeats for a randomized election
// timeout becomes a candidate, increments its term and solicits votes;
// a voter grants only when the candidate's log head
// (lastTerm, lastIndex) is at least as up to date as its own, which
// keeps any elected leader's log a superset of every quorum-acked
// write. A leader seeing a higher term anywhere — vote, append or
// pull — steps down immediately.
//
// "Acked" means quorum-durable: the leader journals the op locally
// (fsync, group-committed) and then acks the client only once a write
// quorum of replicas (itself included) has fsynced the op, as reported
// through term-verified append replies (and a joiner's pull positions).
// Followers fsync before publishing their position, so a counted
// replica can never silently lose the op; commitIndex advances only
// over entries of the current term (with a no-op barrier appended on
// election) so a deposed leader's uncommitted tail can never be counted
// committed, and a follower advances its own commit index only over the
// prefix an append's position check has just verified against the
// leader's log. A kill -9 of any node — leader
// included — therefore loses no acked write: the survivors elect a new
// leader whose log contains every committed op.
// A node applies an op to its replica only once the op has committed
// (journal, commit, apply: Raft's order), so no replica holds a write
// that can still be lost and nothing applied is ever undone. An op the
// service refuses is skipped on every replica; its proposer gets the
// service's error.
//
// Durability and catch-up share one mechanism: the oplog is its own
// snapshot. Its first record holds the state at some applied index; the
// op records journaled after it follow, with a commit record every
// SnapshotEvery ops naming the index the node had then applied. A
// checkpoint therefore costs one small record, not the state: the file
// is rewritten atomically (wal.Log.Rewrite) as the snapshot at the
// applied index plus the unapplied tail only once its dead records —
// writes a reset cleared, no-ops, configs, commit records — outnumber
// its live ones, and on open and close. A restarting node recovers from
// the one file, applying every op through the last commit record; a
// follower that has fallen behind the leader's in-memory tail — or
// whose log conflicts with the leader's at the head it reports —
// installs the leader's snapshot as the first record of a rewritten log,
// and is appended to from its index. A checkpoint keeps in memory the
// entries a voting member may still lack, at most SnapshotEvery of them, so a
// follower one RPC behind it is not sent the whole state.
package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"conprobe/internal/diskfault"
	"conprobe/internal/obs"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
	"conprobe/internal/wal"
)

// Roles. A node is a candidate only transiently, while soliciting votes.
const (
	RoleLeader    = "leader"
	RoleFollower  = "follower"
	RoleCandidate = "candidate"
)

// Op kinds. opNoop is the commit barrier a freshly elected leader
// appends: commitIndex only advances across entries of the current
// term, so the barrier is what lets inherited entries commit. opConfig
// carries a membership change (joint or final) through the same
// replicated, WAL-durable stream as every other op, so recovery can
// never regress the voting configuration.
const (
	opWrite  = "write"
	opReset  = "reset"
	opNoop   = "noop"
	opConfig = "config"
)

// Op is one replicated operation: a write, a reset, a no-op barrier, or
// a membership change.
type Op struct {
	// Index is the leader-assigned position in the op stream, starting
	// at 1 and contiguous.
	Index uint64 `json:"i"`
	// Term is the leader term that created the op. Log positions are
	// identified by (Index, Term): two logs agreeing on both at an index
	// agree on the entire prefix (log matching).
	Term uint64 `json:"t,omitempty"`
	// Kind is "write", "reset" or "noop".
	Kind string `json:"k"`
	// Site is the client location the write arrived from.
	Site string `json:"s,omitempty"`
	// ID, Author, Body, DependsOn mirror the post payload.
	ID        string `json:"id,omitempty"`
	Author    string `json:"a,omitempty"`
	Body      string `json:"b,omitempty"`
	DependsOn string `json:"d,omitempty"`
	// Config is the membership a "config" op installs (nil otherwise).
	Config *Membership `json:"c,omitempty"`
	// rec is the op's record, its JSON: made once where the op was
	// created and carried verbatim from there (encode.go). Read only.
	rec []byte
}

// Event types reported through Config.OnEvent.
const (
	EventBecomeCandidate = "candidate"
	EventBecomeLeader    = "become_leader"
	EventStepDown        = "step_down"
	EventVoteGranted     = "vote_granted"
	EventCommit          = "commit"
	EventInstallSnapshot = "install_snapshot"
	EventReconfigure     = "reconfigure"
)

// Event is one protocol transition, reported synchronously (under the
// node's lock — observers must only record, never call back into the
// node). The deterministic test harness uses the event stream both as
// the transcript it asserts is identical across same-seed runs and as
// the ledger of committed writes that must survive any failover.
type Event struct {
	// Node is the reporting node's ID.
	Node string
	// Type is one of the Event* constants.
	Type string
	// Term is the node's term when the event fired.
	Term uint64
	// Index is the log index the event concerns (commit index for
	// EventCommit, log head for EventBecomeLeader, ...).
	Index uint64
	// Detail carries the candidate voted for (EventVoteGranted).
	Detail string
	// IDs lists the write-op IDs newly committed by an EventCommit.
	IDs []string
}

// Config parameterizes a Node.
type Config struct {
	// NodeID names this node in votes, replies, status and pull requests.
	NodeID string
	// Role seeds the initial role. Empty or RoleFollower: start as a
	// follower (with Peers set, elections take it from there).
	// RoleLeader: bootstrap leadership — with peers this applies only to
	// a pristine node (no persisted term, empty log); a restarted node
	// always comes back a follower and must win an election, which is
	// what makes `-role leader` safe to leave in a supervisor's restart
	// command line.
	Role string
	// LeaderURL names the leader a pure-pull follower (no Peers) pulls
	// from. With Peers set it is only a starting hint; appends overwrite it.
	LeaderURL string
	// SelfURL is this node's own base URL, announced to peers in votes
	// and heartbeats. Required when Peers is non-empty.
	SelfURL string
	// Peers lists the other cluster members' base URLs (self excluded).
	// Empty disables elections entirely: the node is a standalone leader
	// or a legacy pure-pull follower, exactly as before elections
	// existed.
	Peers []string
	// DataDir persists the oplog and the term record; empty runs
	// memory-only (a restarted node then recovers nothing locally).
	DataDir string
	// PullInterval is the poll period of a node the leader does not
	// address: a pure-pull follower, a joiner before a configuration
	// admits it, a removed member (default 250ms). A voting member never
	// pulls: the leader's appends alone catch it up.
	PullInterval time.Duration
	// SnapshotEvery is the checkpoint period in ops (default 256): a
	// commit record is journaled, the in-memory tail trimmed, and the
	// oplog rewritten as a snapshot when its dead records outnumber its
	// live ones and number at least this many. It bounds how many
	// committed ops a restarted node waits for a leader to re-commit.
	SnapshotEvery int
	// ElectionTimeout is the base heartbeat-silence span after which a
	// follower campaigns; each arming draws a uniform jitter in
	// [0, ElectionTimeout) on top (default 1s, so timeouts fall in
	// [1s, 2s)).
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's announcement period (default
	// 100ms). Keep well under ElectionTimeout.
	HeartbeatInterval time.Duration
	// Quorum is the write-ack quorum size including the leader; 0 means
	// a majority of the current membership. It affects write acks only —
	// vote quorums are always a majority — and it is floored at a
	// majority (a minority write quorum would not overlap elections) and
	// capped at the live membership size (so a shrink below the override
	// cannot wedge writes forever).
	Quorum int
	// ClockSkew bounds how far any member's clock can drift from any
	// other's. The leader lease lasts ElectionTimeout − 2·ClockSkew: one
	// skew allowance for the leader's own measurement of the lease, one
	// for each follower's measurement of leader silence before it will
	// grant a vote. 0 means ElectionTimeout/10; a skew of
	// ElectionTimeout/2 or more disables leases entirely (lease reads
	// then always fall back to a quorum round).
	ClockSkew time.Duration
	// SnapshotChunkBytes bounds each snapshot-install chunk (default
	// 256 KiB). Tests shrink it to force multi-chunk transfers.
	SnapshotChunkBytes int
	// QuorumTimeout bounds how long a write waits for its quorum before
	// failing the client call (default 10s). The op stays in the log and
	// may still commit later: the outcome is unknown, not negative.
	QuorumTimeout time.Duration
	// NoSync disables fsync (tests only).
	NoSync bool
	// FS is the filesystem the node's durable state (oplog, term log)
	// lives on; nil means the real one. Storage-fault drills pass a
	// diskfault.Injector's FS.
	FS diskfault.FS
	// Metrics, when non-nil, surfaces storage-fault counters
	// (wal_quarantined_segments, fsync_poisoned_total).
	Metrics *obs.Scope
	// Seed keys the deterministic election jitter (detrand); same seed,
	// node ID and draw count give the same timeout.
	Seed int64
	// Clock supplies time for timers and lag bookkeeping (default real
	// time). The test harness substitutes a virtual clock.
	Clock vtime.Clock
	// Transport overrides the peer RPC transport (default: JSON over
	// HTTP). The test harness substitutes an in-process one.
	Transport Transport
	// OnEvent observes protocol transitions; called under the node's
	// lock, so it must only record and return.
	OnEvent func(Event)
}

// follower tracks one replica's progress as seen by the leader. The
// followers map is keyed by the replica's URL — the same identity
// membership quorums are counted over.
type follower struct {
	// id is the replica's self-reported node name, for display.
	id string
	// match is the highest log index verified (by term comparison) to
	// replicate this leader's own log; only match counts toward write
	// quorums.
	match uint64
	// reported/reportedTerm are the head the node last announced — or,
	// before it has, the leader's own head when the record was created,
	// the Raft nextIndex guess. The next request starts there.
	reported, reportedTerm uint64
	// lastSeen is when the node last pulled or answered a heartbeat; zero
	// until it has.
	lastSeen time.Time
	// inflight numbers the outstanding request that moves the replica —
	// entries, or the snapshot flag — 0 when there is none. One at a time:
	// what is proposed meanwhile rides the next request as a batch.
	inflight uint64
	// paused is set when a request to the replica failed or did not move
	// it, and cleared by its next reply; until then only timer heartbeats
	// address it.
	paused bool
}

// Node wraps a service.Service in replication. It implements
// service.Service itself: writes and resets are accepted only on the
// leader (others return *NotLeaderError), reads are served locally on
// any node.
type Node struct {
	cfg Config
	svc service.Service

	mu         sync.Mutex
	commitCond *sync.Cond // broadcast on commit advance, role/term change, close

	log   *wal.Log // oplog; nil when memory-only
	terms *termStore

	// Election state.
	role        string
	currentTerm uint64
	votedFor    string
	leaderID    string
	leaderURL   string
	votes       map[string]bool // grants received while candidate, by voter URL
	// campaignGen increments on every campaign start, step-down and
	// win: a vote or heartbeat response captured under an older
	// generation is provably from a finished episode and is dropped even
	// when the term number happens to match again.
	campaignGen uint64
	// lastLeaderContact is when a live leader's heartbeat was last
	// accepted; votes for other candidates are refused within
	// ElectionTimeout of it (leader stickiness — what makes the leader
	// lease sound).
	lastLeaderContact time.Time
	// bootTime is when this process started. leaderID and
	// lastLeaderContact are in-memory only, so a restarted voter has
	// forgotten how recently it heard from a live leader; HandleVote
	// refuses every grant within ElectionTimeout of boot so restart
	// amnesia cannot let a candidate assemble a quorum while a deposed
	// leader's lease is still running.
	bootTime time.Time
	// nonGrantingUntil extends the boot-stickiness window explicitly
	// when recovery quarantined a corrupt term log: the node may have
	// FORGOTTEN a granted vote, so it must refuse every grant (and skip
	// its own candidacy — a campaign casts a self-vote) for a full
	// vote-hold window, 2·ElectionTimeout + 2·ClockSkew: any campaign
	// the forgotten vote could still decide was already underway at
	// recovery and is abandoned by its candidate within ElectionTimeout
	// plus jitter (< 2·ElectionTimeout) on the candidate's clock, after
	// which the campaign-generation guard drops stale grants. The
	// residual assumption the window rests on is stated in DESIGN §10.
	nonGrantingUntil time.Time
	// voteHold mirrors the persisted vote-hold marker backing
	// nonGrantingUntil: every boot re-arms the window in full until one
	// uninterrupted window elapses in a live process, so a crash inside
	// the window can never wash the restriction away.
	voteHold bool
	// rebuilding marks a node whose oplog was quarantined: the emptied
	// log can no longer veto — through HandleVote's up-to-dateness gate —
	// candidates missing entries this node once acked toward a commit, so
	// every vote grant and the node's own candidacy are withheld until
	// the log has been re-sourced from a current leader (caught up, by
	// appends after any snapshot install, to the head it advertises).
	// Backed by a marker file in DataDir so the restriction survives any
	// number of restarts; it is retired only once the re-sourced state is
	// itself durable.
	rebuilding bool
	// storageNotes records what recovery had to tolerate (torn tails,
	// quarantined segments, forgotten term records) for status surfaces.
	storageNotes []string

	// Membership. config is the active voting configuration (adopted the
	// moment its entry is appended); configIndex is that entry's log
	// index, 0 for the static boot config.
	config      Membership
	configIndex uint64
	// peers caches config.PeerURLs(self), the fan-out list.
	peers []string

	// Leader-lease / read-index state (leader only; see lease.go).
	roundSeq       uint64 // heartbeat rounds broadcast so far
	confirmedRound uint64 // highest round acked by a vote quorum
	prunedRound    uint64 // rounds at or below this are forgotten
	rounds         map[uint64]*hbRound
	leaseUntil     time.Time

	// Snapshot streaming: leader-side frozen stream cache, follower-side
	// reassembly buffer.
	snapCache   *snapStream
	snapID      string
	snapBuf     []byte
	snapRetries int

	// Log state. ops holds the (floor, lastIndex] tail; everything at or
	// below floor lives only in the snapshot record, whose head is
	// (floor, floorTerm).
	lastIndex   uint64
	lastTerm    uint64
	floor       uint64
	floorTerm   uint64
	commitIndex uint64
	applied     uint64 // highest op applied to the service; = commitIndex whenever n.mu is free
	ops         []Op
	// state and appliedConfig are the snapshot at applied: the writes since
	// the last reset, as records, and the config entry in force (nil: static).
	state              [][]byte
	appliedConfig      *Membership
	appliedConfigIndex uint64
	barrier            uint64           // the leader's election no-op; no lease or quorum read before it commits
	refused            map[uint64]error // leader: errors of refused committed ops, until WaitCommitted takes them
	sinceSnap          int              // ops published since the last checkpoint
	// logRecs counts the oplog's records — each write in its snapshot
	// record's state, then every op and commit record after it — for
	// checkpointLocked to weigh against the live ones.
	logRecs   int
	followers map[string]*follower
	appendSeq uint64 // requests sent that move a replica, so far

	// block is what kept op records are carved from (keepLocked).
	block []byte

	// Timers and in-flight guards; all driven by cfg.Clock.
	electionTimer  vtime.Timer
	heartbeatTimer vtime.Timer
	pullTimer      vtime.Timer
	pullInFlight   bool
	snapInFlight   bool
	drawCount      uint64 // election jitter draws so far (detrand counter)
	closed         bool

	// wire is the HTTP transport, when the node runs on it; inbound the
	// append streams the node answers (stream.go).
	wire    *httpTransport
	inbound map[net.Conn]struct{}
}

var _ service.Service = (*Node)(nil)

// NotLeaderError rejects a mutation sent to a non-leader node. Its
// LeaderHint method is discovered structurally by httpapi, which maps
// it to 421 Misdirected Request with an X-Cluster-Leader header.
type NotLeaderError struct {
	// Leader is the current leader's URL, if known.
	Leader string
}

// Error implements error.
func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "cluster: not the leader"
	}
	return fmt.Sprintf("cluster: not the leader (leader: %s)", e.Leader)
}

// LeaderHint returns the leader URL for client redirection.
func (e *NotLeaderError) LeaderHint() string { return e.Leader }

// nodeSnapshot is the state at an applied index: the effective write
// set and the voting configuration in force there. It is the first
// record of a compacted oplog — every op record after it has a higher
// index — and what the leader streams to a follower that must jump to
// the committed present.
type nodeSnapshot struct {
	LastIndex uint64 `json:"last_index"`
	LastTerm  uint64 `json:"last_term,omitempty"`
	State     []Op   `json:"state"`
	// Config/ConfigIndex carry the voting configuration active at the
	// snapshot head, so a compacted config entry still survives recovery.
	Config      *Membership `json:"config,omitempty"`
	ConfigIndex uint64      `json:"config_index,omitempty"`
}

// NewNode wraps svc. If cfg.DataDir is set, the node recovers its oplog
// and term record from there and compacts on open.
func NewNode(svc service.Service, cfg Config) (*Node, error) {
	switch cfg.Role {
	case "", RoleLeader, RoleFollower:
	default:
		return nil, fmt.Errorf("cluster: role must be %q or %q, got %q", RoleLeader, RoleFollower, cfg.Role)
	}
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: node requires an ID")
	}
	if len(cfg.Peers) > 0 && cfg.SelfURL == "" {
		return nil, fmt.Errorf("cluster: peers require a self URL to announce")
	}
	if cfg.Role != RoleLeader && cfg.LeaderURL == "" && len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: follower requires a leader URL or peers")
	}
	if cfg.Quorum < 0 || cfg.Quorum > len(cfg.Peers)+1 {
		return nil, fmt.Errorf("cluster: quorum %d out of range for a %d-node cluster", cfg.Quorum, len(cfg.Peers)+1)
	}
	if cfg.PullInterval <= 0 {
		cfg.PullInterval = 250 * time.Millisecond
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	if cfg.QuorumTimeout <= 0 {
		cfg.QuorumTimeout = 10 * time.Second
	}
	if cfg.ClockSkew <= 0 {
		cfg.ClockSkew = cfg.ElectionTimeout / 10
	}
	if cfg.SnapshotChunkBytes <= 0 {
		cfg.SnapshotChunkBytes = 256 << 10
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.Transport == nil {
		cfg.Transport = newHTTPTransport(cfg.Metrics)
	}
	n := &Node{
		cfg:       cfg,
		svc:       svc,
		inbound:   make(map[net.Conn]struct{}),
		role:      RoleFollower,
		leaderURL: cfg.LeaderURL,
		bootTime:  cfg.Clock.Now(),
		followers: make(map[string]*follower),
		rounds:    make(map[uint64]*hbRound),
	}
	n.wire, _ = cfg.Transport.(*httpTransport)
	n.setConfigLocked(staticMembership(cfg.NodeID, cfg.SelfURL, cfg.Peers), 0)
	n.commitCond = sync.NewCond(&n.mu)
	if cfg.DataDir != "" {
		// A fresh node is pointed at a directory that does not exist yet;
		// cold start means an empty oplog, not a replay failure.
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: creating data dir: %w", err)
		}
		if err := n.recover(); err != nil {
			return nil, err
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	// A quarantine-emptied node is indistinguishable from a pristine one
	// by its term and log head alone; the rebuilding flag keeps it from
	// bootstrapping leadership over a cluster whose history it lost.
	pristine := n.currentTerm == 0 && n.lastIndex == 0 && !n.rebuilding
	if cfg.Role == RoleLeader && (len(cfg.Peers) == 0 || pristine) {
		// Bootstrap leadership. Without peers this is the standalone
		// leader mode and survives restarts; with peers only a pristine
		// node bootstraps — after that, leadership is only ever won.
		if n.currentTerm == 0 {
			n.currentTerm = 1
			n.votedFor = cfg.NodeID
			if err := n.terms.save(termRecord{Term: 1, VotedFor: cfg.NodeID}); err != nil {
				n.closeStorageLocked()
				return nil, err
			}
		}
		n.becomeLeaderLocked()
	} else {
		n.membershipChangedLocked()
	}
	return n, nil
}

// logPath and termPath locate the persisted state in DataDir.
func (n *Node) logPath() string  { return filepath.Join(n.cfg.DataDir, "oplog.log") }
func (n *Node) termPath() string { return filepath.Join(n.cfg.DataDir, "term.log") }

// legacyNames are files this build cannot read: the snapshot a node
// once kept beside its oplog, and consvc -durable's log and snapshot.
var legacyNames = []string{"node.snap", "wal-0.log", "state.snap"}

// rebuildingMarkerPath and voteHoldMarkerPath locate the persisted
// voting restrictions in DataDir. The marker IS the restriction: as
// long as the file exists, every boot withholds votes.
func (n *Node) rebuildingMarkerPath() string { return filepath.Join(n.cfg.DataDir, "rebuilding") }
func (n *Node) voteHoldMarkerPath() string   { return filepath.Join(n.cfg.DataDir, "votehold") }

// fs returns the node's filesystem, defaulting to the real one.
func (n *Node) fs() diskfault.FS {
	if n.cfg.FS == nil {
		return diskfault.OS
	}
	return n.cfg.FS
}

// markerPresent reports whether the marker file at path exists.
func (n *Node) markerPresent(path string) bool {
	_, err := n.fs().Stat(path)
	return err == nil
}

// writeMarker durably creates the marker file at path. Losing a
// marker across a crash would silently lift a voting safety gate, so
// the create is fsynced and the parent directory synced; a failure
// here must fail the boot (the pre-quarantine behavior was fail-stop,
// and fail-stop is the safe fallback).
func (n *Node) writeMarker(path string) error {
	f, err := n.fs().OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, wal.DefaultFileMode)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return wal.SyncDirFS(n.cfg.FS, n.cfg.DataDir)
}

// removeMarker retires a marker file. The directory sync is best
// effort: a removal that fails to survive power loss merely re-arms a
// conservative hold on the next boot — it can never lift one early.
func (n *Node) removeMarker(path string) error {
	if err := n.fs().Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	_ = wal.SyncDirFS(n.cfg.FS, n.cfg.DataDir)
	return nil
}

// voteHoldWindow is how long a term-log-quarantined node withholds
// every grant and its own candidacy. Any campaign a forgotten vote
// could still decide was already underway when this node recovered
// (its candidate persisted the term before soliciting), and a
// campaign is abandoned — its stale grants dropped by the campaign
// generation guard — within ElectionTimeout plus jitter, under
// 2·ElectionTimeout, measured on the candidate's clock; two ClockSkew
// allowances bridge that clock to ours. DESIGN §10 states the
// assumption this bound rests on.
func (n *Node) voteHoldWindow() time.Duration {
	return 2*n.cfg.ElectionTimeout + 2*n.cfg.ClockSkew
}

// beginRebuilding durably withholds voting after an oplog quarantine.
// It must succeed before the boot proceeds: if the marker cannot be
// persisted, recovery fails the boot and keeps the pre-quarantine
// fail-stop safety.
func (n *Node) beginRebuilding() error {
	if n.rebuilding {
		return nil
	}
	if err := n.writeMarker(n.rebuildingMarkerPath()); err != nil {
		return fmt.Errorf("cluster: persisting rebuilding marker: %w", err)
	}
	n.rebuilding = true
	n.storageNotes = append(n.storageNotes,
		"votes withheld until the log is re-sourced from the leader")
	return nil
}

// rebuiltLocked durably retires the rebuilding restriction. Callers
// must have just re-sourced the log from the current leader with the
// result already durable on disk — retiring the marker any earlier
// could leave a crash-restarted node voting against an emptied log
// again.
func (n *Node) rebuiltLocked() {
	if !n.rebuilding {
		return
	}
	if n.cfg.DataDir != "" {
		if err := n.removeMarker(n.rebuildingMarkerPath()); err != nil {
			return // stay withheld; the next catch-up retries
		}
	}
	n.rebuilding = false
	n.storageNotes = append(n.storageNotes,
		"log re-sourced from the leader; voting re-enabled")
}

// Rebuilding reports whether the node is withholding votes until its
// quarantined log has been re-sourced from a leader.
func (n *Node) Rebuilding() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rebuilding
}

// recover replays the oplog and the term record from DataDir and
// compacts. The snapshot record's write set, and the ops through the
// last commit record folded into it, are applied to the (fresh,
// in-memory) service; the ops journaled after that are applied once a
// commit index covers them again.
//
// Storage faults are survived, not just detected. Mid-log oplog damage
// quarantines the file to a .corrupt sidecar and the node boots empty;
// the leader's snapshot install and appends re-source everything —
// serving a hole is never possible because commitIndex restarts at the
// recovered floor. Until that re-sourcing completes the node is also a
// non-voter (the persisted rebuilding marker): its emptied log would
// otherwise let HandleVote's up-to-dateness gate bless candidates
// missing entries this node once acked toward a commit. A corrupt term
// log likewise quarantines, and the node withholds grants for a
// persisted vote-hold window so a forgotten vote can never be re-granted
// while it could still decide the same election. A leader with no peers
// and no leader URL has nobody to re-source from, so it refuses to boot
// on a damaged oplog instead, naming the file.
func (n *Node) recover() error {
	walOpts := wal.Options{
		NoSync:     n.cfg.NoSync,
		FS:         n.cfg.FS,
		Quarantine: true,
		Metrics:    n.cfg.Metrics,
	}
	// Skipping a legacy file would resurrect its history as loss, so a
	// directory holding one is refused outright.
	for _, name := range legacyNames {
		if legacy := filepath.Join(n.cfg.DataDir, name); n.markerPresent(legacy) {
			return fmt.Errorf("cluster: %s was written by an older build (a node's snapshot beside its oplog, or consvc -durable); this build cannot read it", legacy)
		}
	}
	// A peerless leader checks its log before opening it, which would
	// truncate a lone snapshot record read as torn (see below).
	alone := n.cfg.Role == RoleLeader && len(n.cfg.Peers) == 0 && n.cfg.LeaderURL == ""
	refuse := func(damage string) error {
		return fmt.Errorf("cluster: refusing %s, which a node without peers cannot re-source: %s", n.logPath(), damage)
	}
	if alone {
		if rep, err := wal.ReadFS(n.cfg.FS, n.logPath()); err != nil && !os.IsNotExist(err) {
			return refuse(err.Error())
		} else if len(rep.Records) == 0 && rep.Note != "" {
			return refuse(rep.Note)
		}
	}
	// Voting restrictions persisted by an earlier incarnation gate this
	// boot too: a crash inside a restriction must never wash it away.
	if n.markerPresent(n.rebuildingMarkerPath()) {
		n.rebuilding = true
		n.storageNotes = append(n.storageNotes,
			"previous incarnation had not finished rebuilding from the leader; votes stay withheld")
	}
	if n.markerPresent(n.voteHoldMarkerPath()) {
		n.voteHold = true
		n.nonGrantingUntil = n.cfg.Clock.Now().Add(n.voteHoldWindow())
		n.storageNotes = append(n.storageNotes,
			"re-armed the vote-hold window from its persisted marker")
	}
	logOpts := walOpts
	logOpts.Quarantine = !alone
	log, rep, err := wal.Open(n.logPath(), logOpts)
	if err != nil {
		return fmt.Errorf("cluster: replaying oplog: %w", err)
	}
	// A log this node has opened before starts with a snapshot record that
	// an atomic rewrite put there whole. If not even that record survived,
	// it did not tear in a crash: it rotted, what reads as a torn tail at
	// offset 0 was the node's state, and it is as lost as in a quarantine.
	if rep.Quarantined || (len(rep.Records) == 0 && rep.Note != "") {
		if alone { // the log changed under the check above
			log.Close()
			return refuse(rep.Note)
		}
		n.storageNotes = append(n.storageNotes, "oplog: "+rep.Note)
		if err := n.beginRebuilding(); err != nil {
			log.Close()
			return err
		}
	}
	n.log = log

	var snap nodeSnapshot
	if len(rep.Records) > 0 {
		if err := json.Unmarshal(rep.Records[0], &snap); err != nil {
			log.Close()
			return fmt.Errorf("cluster: decoding oplog snapshot record: %w", err)
		}
		rep.Records = rep.Records[1:]
	}
	// The ops through the last commit record had committed and been
	// applied: they fold straight into the snapshot as they are decoded, a
	// reset clearing its state, so each surviving write reaches the
	// service once. What of the ops after it committed is unknowable
	// locally: the leader's heartbeats (or our own election) re-establish
	// it.
	commit, head := snap.LastIndex, snap.LastIndex
	for _, raw := range rep.Records {
		applied, is, err := decodeCommit(raw)
		if err != nil {
			log.Close()
			return err
		}
		if is {
			commit = max(commit, applied)
		}
	}
	var tail []Op
	for _, raw := range rep.Records {
		if _, is, _ := decodeCommit(raw); is {
			continue
		}
		var op Op
		if err := op.decode(raw); err != nil {
			log.Close()
			return fmt.Errorf("cluster: decoding oplog record: %w", err)
		}
		if op.Index <= head {
			continue
		}
		head = op.Index
		if op.Index > commit {
			tail = append(tail, op)
			continue
		}
		switch op.Kind {
		case opReset:
			snap.State = snap.State[:0]
		case opWrite:
			snap.State = append(snap.State, op)
		case opConfig:
			snap.Config, snap.ConfigIndex = op.Config, op.Index
		}
		snap.LastIndex, snap.LastTerm = op.Index, op.Term
	}
	n.adoptSnapshotLocked(&snap)
	for _, op := range tail {
		n.lastIndex = op.Index
		n.lastTerm = max(n.lastTerm, op.Term)
		n.ops = append(n.ops, op)
		if op.Kind == opConfig && op.Config != nil {
			// Adopt the latest durable configuration — joint or final —
			// so a node recovering mid-reconfigure rejoins under exactly
			// the member set its log prescribes, never an older one.
			n.setConfigLocked(*op.Config, op.Index)
		}
	}
	// Compact on open: the snapshot and the ops after it are rewritten as
	// the log (and a temp file a killed compaction left behind goes).
	if err := n.compactLocked(); err != nil {
		log.Close()
		return fmt.Errorf("cluster: compacting on open: %w", err)
	}

	terms, rec, termQuarantined, err := openTermStore(n.termPath(), walOpts)
	if err != nil {
		log.Close()
		return err
	}
	if termQuarantined {
		// The node may have granted a vote it no longer remembers. Refuse
		// every grant — and the node's own candidacy, whose self-vote is a
		// grant too — for a full vote-hold window (see voteHoldWindow for
		// the bound's derivation and DESIGN §10 for its assumption). The
		// hold is persisted so a second crash re-arms it in full instead
		// of washing it away behind a clean-looking empty term log.
		if err := n.writeMarker(n.voteHoldMarkerPath()); err != nil {
			log.Close()
			terms.close()
			return fmt.Errorf("cluster: persisting vote-hold marker: %w", err)
		}
		n.voteHold = true
		n.nonGrantingUntil = n.cfg.Clock.Now().Add(n.voteHoldWindow())
		n.storageNotes = append(n.storageNotes,
			"quarantined corrupt term log; booting as a non-granting voter for a full vote-hold window")
	}
	n.terms = terms
	n.currentTerm = rec.Term
	n.votedFor = rec.VotedFor
	// The log can hold entries from a term the term store never saw
	// (terms are persisted on vote/campaign, ops on replication). The
	// node never granted a vote in such a term, so adopting it with a
	// clear votedFor is safe.
	if n.lastTerm > n.currentTerm {
		n.currentTerm = n.lastTerm
		n.votedFor = ""
	}
	return nil
}

// adoptSnapshotLocked makes snap the node's whole state: log head and
// floor, commit and applied index — a snapshot is cut at an applied, so
// committed, index — the replica, rebuilt from the write set, and the
// configuration, which beats the static -peers flags. As at commit, a
// write the service refuses is skipped; Reset never fails for the
// services a cluster wraps.
func (n *Node) adoptSnapshotLocked(snap *nodeSnapshot) {
	n.lastIndex, n.lastTerm = snap.LastIndex, snap.LastTerm
	n.floor, n.floorTerm = snap.LastIndex, snap.LastTerm
	n.commitIndex, n.applied = snap.LastIndex, snap.LastIndex
	n.ops, n.state, n.sinceSnap = nil, nil, 0
	_ = n.svc.Reset()
	for _, op := range snap.State {
		_ = n.applyLocked(op)
	}
	n.appliedConfig, n.appliedConfigIndex = snap.Config, snap.ConfigIndex
	if snap.Config != nil {
		n.setConfigLocked(*snap.Config, snap.ConfigIndex)
	}
}

// Name returns the wrapped service's name.
func (n *Node) Name() string { return n.svc.Name() }

// StorageNotes reports what recovery had to tolerate: torn tails,
// quarantined segments, a forgotten term record. Empty for a clean
// boot.
func (n *Node) StorageNotes() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.storageNotes...)
}

// Role returns the node's current role.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.currentTerm
}

// LastIndex returns the index of the node's log head, the highest op
// it has journaled.
func (n *Node) LastIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastIndex
}

// CommitIndex returns the highest known quorum-committed op index.
func (n *Node) CommitIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commitIndex
}

// TailOps returns a copy of the in-memory op tail (everything after the
// compaction floor), for log-matching assertions in tests.
func (n *Node) TailOps() []Op {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Op(nil), n.ops...)
}

// setConfigLocked adopts cfg, the configuration entry at log index idx
// (0 for the static boot configuration).
func (n *Node) setConfigLocked(cfg Membership, idx uint64) {
	n.config, n.configIndex = cfg, idx
	n.peers = cfg.PeerURLs(n.cfg.SelfURL)
}

// peerURLsLocked lists the member URLs this node fans protocol traffic
// out to, derived from the active configuration (static or replicated).
// The slice is shared: callers only read it.
func (n *Node) peerURLsLocked() []string { return n.peers }

// membershipChangedLocked re-evaluates what the node's place in the
// configuration entitles it to: a voting member of a multi-node
// configuration runs an election timer and is replicated to by the
// leader alone; anyone else — a pure-pull follower, a joiner not yet
// voted in, a removed member — polls the leader at PullInterval.
func (n *Node) membershipChangedLocked() {
	if !n.clusteredLocked() && n.pullTimer == nil {
		n.schedulePullLocked(n.cfg.PullInterval)
	}
	n.resetElectionTimerLocked()
}

// clusteredLocked reports whether this node participates in elections:
// it must be a voting member of a configuration that has other members.
// A standalone leader, a legacy pure-pull follower, a joining node that
// has not yet been voted in, and a removed node all sit this out.
func (n *Node) clusteredLocked() bool {
	return len(n.peerURLsLocked()) > 0 && n.config.Contains(n.cfg.SelfURL)
}

// Write accepts a post on the leader: the op is indexed, term-stamped
// and journaled (fsynced), then the call blocks until a write quorum of
// replicas has fsynced it and it is applied. Non-leaders refuse with
// *NotLeaderError.
func (n *Node) Write(from simnet.Site, p service.Post) error {
	idx, err := n.ProposeWrite(from, p)
	if err != nil {
		return err
	}
	return n.WaitCommitted(idx)
}

// ProposeWrite appends a write to the leader's log (locally fsynced)
// without waiting for the quorum, returning its index. Pair
// with WaitCommitted for the full acked-write path; the deterministic
// harness calls the halves separately so its single-threaded event loop
// never blocks.
func (n *Node) ProposeWrite(from simnet.Site, p service.Post) (uint64, error) {
	return n.accept(Op{
		Kind: opWrite, Site: string(from),
		ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn,
	})
}

// Reset clears the replicated state (leader only); the reset is an op
// like any other, so followers replay it in stream order and it too is
// acked only at quorum.
func (n *Node) Reset() error {
	idx, err := n.accept(Op{Kind: opReset})
	if err != nil {
		return err
	}
	return n.WaitCommitted(idx)
}

// accept indexes and journals one op on the leader. The whole sequence
// runs under n.mu: the op is fsynced BEFORE it is published into
// n.ops/n.lastIndex, so no append can carry an op the leader could
// still lose to a crash (a follower durably holding an un-fsynced
// index would diverge forever once the restarted leader reassigned that
// index). The op reaches the wrapped service only at commit, in index
// order with every other op (applyCommittedLocked). Holding the lock
// across the fsync serializes accepts; a checkpoint's commit record adds
// no fsync of its own (checkpointLocked).
func (n *Node) accept(op Op) (uint64, error) {
	n.mu.Lock()
	defer n.unlockAndReplicate()
	return n.acceptLocked(op)
}

// acceptLocked is accept with the lock already held, for callers (like
// Reconfigure) whose op was validated against state that must not move
// before the op is staged.
func (n *Node) acceptLocked(op Op) (uint64, error) {
	if n.closed {
		return 0, fmt.Errorf("cluster: node is closed")
	}
	if n.role != RoleLeader {
		return 0, &NotLeaderError{Leader: n.leaderURL}
	}
	return n.appendNewLocked(op)
}

// appendNewLocked creates op at the next index in the current term with
// its record, the one time an op is encoded, then journals, publishes and
// counts it toward the commit index. Nothing is published before the
// journal write succeeds: a refused op neither replicates nor takes an index.
func (n *Node) appendNewLocked(op Op) (uint64, error) {
	op.Index = n.lastIndex + 1
	op.Term = n.currentTerm
	op = n.keepLocked(func(b []byte) []byte { return appendOp(b, &op) })
	if err := n.stageLocked(op); err != nil {
		return 0, err
	}
	n.publishLocked(op)
	n.recomputeCommitLocked()
	return op.Index, nil
}

// WaitCommitted blocks until the op at idx is quorum-committed and
// applied, returning the service's error if it refused the op, and an
// error if leadership (in the proposing term) is lost or QuorumTimeout
// passes first. A timeout does not remove the op: it may still commit
// later, so the client-visible outcome is "unknown", the honest answer
// for a write whose quorum did not assemble in time.
func (n *Node) WaitCommitted(idx uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	term := n.currentTerm
	deadline := n.cfg.Clock.Now().Add(n.cfg.QuorumTimeout)
	return n.waitLocked(deadline, func() (bool, error) {
		switch {
		case n.commitIndex >= idx:
			err := n.refused[idx]
			delete(n.refused, idx)
			return true, err
		case n.closed:
			return false, fmt.Errorf("cluster: node closed before op %d committed", idx)
		case n.role != RoleLeader || n.currentTerm != term:
			return false, fmt.Errorf("cluster: leadership lost before op %d committed (quorum not reached)", idx)
		case !n.cfg.Clock.Now().Before(deadline):
			return false, fmt.Errorf("cluster: op %d not committed within %v (write quorum of %s unreachable)",
				idx, n.cfg.QuorumTimeout, n.config.describe())
		}
		return false, nil
	})
}

// waitLocked blocks on commitCond until check reports the wait over:
// settled, or failed with the error it returns. sync.Cond has no timed
// wait, so a timer broadcast at deadline wakes the loop for check to see
// the deadline pass. check runs once before the timer is armed, so a
// wait that is already over arms none. Caller holds n.mu.
func (n *Node) waitLocked(deadline time.Time, check func() (bool, error)) error {
	settled, err := check()
	if settled || err != nil {
		return err
	}
	t := n.cfg.Clock.AfterFunc(deadline.Sub(n.cfg.Clock.Now()), func() {
		n.mu.Lock()
		n.commitCond.Broadcast()
		n.mu.Unlock()
	})
	defer t.Stop()
	for !settled && err == nil {
		n.commitCond.Wait()
		settled, err = check()
	}
	return err
}

// stageLocked journals ops — contiguous from n.lastIndex+1 — with one
// WAL write and one fsync for the lot, without publishing them. Nothing
// reaches the service here: an op is applied only once it commits
// (applyCommittedLocked). Caller holds n.mu. On error the WAL is
// unchanged.
func (n *Node) stageLocked(ops ...Op) error {
	if n.log == nil {
		return nil
	}
	var small [4][]byte // a batch this short lists its records on the stack
	recs := small[:0]
	for i := range ops {
		recs = append(recs, ops[i].rec)
	}
	if err := n.log.AppendBatch(recs); err != nil {
		return fmt.Errorf("cluster: journaling op %d: %w", ops[0].Index, err)
	}
	n.logRecs += len(ops)
	return nil
}

// keepLocked returns the op whose record add appends, read back from
// that record, which is carved from n.block, 32 KiB at a time: a kept
// record allocates once per block, not per op, and is never moved or
// written, so the op's strings view it and the record is the one copy of
// the op's bytes the node holds. A record the rest of the block cannot
// hold keeps the array add grew for it. Caller holds n.mu.
func (n *Node) keepLocked(add func([]byte) []byte) (op Op) {
	spare := n.block[len(n.block):]
	rec := add(spare)
	if len(rec) <= cap(spare) {
		n.block = n.block[:len(n.block)+len(rec)]
	} else {
		n.block = make([]byte, 0, 32<<10)
	}
	_ = op.decode(rec[:len(rec):len(rec)]) // appendOp's output, or a record already read once
	return op
}

// publishLocked installs a staged op into the log appends carry. Caller
// holds n.mu; the op is durable but not yet applied. A config op takes
// effect here — on append, not commit, the joint-consensus rule.
func (n *Node) publishLocked(op Op) {
	n.lastIndex = op.Index
	n.lastTerm = max(n.lastTerm, op.Term)
	n.ops = append(n.ops, op)
	if op.Kind == opConfig && op.Config != nil {
		n.setConfigLocked(*op.Config, op.Index)
		n.emitLocked(Event{
			Type: EventReconfigure, Term: n.currentTerm, Index: op.Index,
			Detail: op.Config.describe(),
		})
		if n.role == RoleLeader {
			// The change may have given a standalone bootstrap leader its
			// first peers — without heartbeats the joiner's election timer
			// would depose it within one timeout — or removed the last one.
			if len(n.peerURLsLocked()) == 0 {
				if n.heartbeatTimer != nil {
					n.heartbeatTimer.Stop()
					n.heartbeatTimer = nil
				}
			} else if n.heartbeatTimer == nil && !n.closed {
				n.heartbeatTimer = n.cfg.Clock.AfterFunc(0, n.heartbeatTick)
			}
		} else {
			// Membership may have just granted (or revoked) this node's
			// right to campaign and to be replicated to.
			n.membershipChangedLocked()
		}
	}
	n.sinceSnap++
}

// applyCommittedLocked moves the commit index up to commit, when that
// raises it, and applies the ops it newly covers to the service in index
// order; then it checkpoints once SnapshotEvery ops were appended since
// the last checkpoint, and checks whether the oplog is due a rewrite
// once it applied a reset, the same rule for every role. It is the only
// place an op reaches the service and n.state, so neither ever holds an
// op that can still be lost. An op the service refuses is skipped — on every
// replica alike, the service being deterministic — and on the leader its
// error is kept for the proposer. Caller holds n.mu.
func (n *Node) applyCommittedLocked(commit uint64) {
	if commit <= n.commitIndex {
		return
	}
	n.commitIndex = commit
	reset := false
	for n.applied < commit {
		op := n.ops[n.applied-n.floor]
		n.applied++
		reset = reset || op.Kind == opReset
		if err := n.applyLocked(op); err != nil && n.role == RoleLeader {
			n.refused[op.Index] = err
		}
	}
	if beat := n.sinceSnap >= n.cfg.SnapshotEvery; beat || reset {
		n.checkpointLocked(beat)
	}
}

// applyLocked applies one op to the service and folds it into the state
// at applied; an op the service refuses changes neither.
func (n *Node) applyLocked(op Op) error {
	switch op.Kind {
	case opReset:
		if err := n.svc.Reset(); err != nil {
			return err
		}
		n.state = nil
	case opNoop:
	case opConfig:
		n.appliedConfig, n.appliedConfigIndex = op.Config, op.Index
	default:
		p := service.Post{ID: op.ID, Author: op.Author, Body: op.Body, DependsOn: op.DependsOn}
		if err := n.svc.Write(simnet.Site(op.Site), p); err != nil {
			return err
		}
		n.state = append(n.state, op.rec)
	}
	return nil
}

// checkpointLocked rewrites the oplog once its dead records — writes a
// reset cleared, no-ops, configs, commit records — outnumber its live
// ones, the state's writes and the unapplied tail, and number at least
// SnapshotEvery: a rewrite costs O(state), so it waits until it halves
// the file at least. Otherwise, on the SnapshotEvery beat, it journals a
// commit record naming the applied index, O(1), and trims the in-memory
// tail. The record is not fsynced: the next op's group fsync covers it,
// and losing it only leaves a restart more ops to wait on a leader for.
// Best effort: a failure leaves the log as it was, and the next commit
// advance retries. Caller holds n.mu.
func (n *Node) checkpointLocked(beat bool) {
	if n.log != nil {
		live := len(n.state) + int(n.lastIndex-n.applied)
		if dead := n.logRecs - live; dead > live && dead >= n.cfg.SnapshotEvery {
			_ = n.compactLocked()
			return
		}
	}
	if !beat {
		return
	}
	if n.log != nil {
		var rec [32]byte
		if _, err := n.log.Write(appendCommit(rec[:0], n.applied)); err != nil {
			return
		}
		n.logRecs++
	}
	n.trimLocked()
}

// compactLocked rewrites the oplog as the snapshot at the applied index
// followed by the records of the ops after it, and trims the in-memory
// tail; memory-only nodes just trim. Caller holds n.mu — the fsync
// stalls concurrent accepts, which is the price of a consistent cut.
func (n *Node) compactLocked() error {
	if n.log != nil {
		if err := n.rewriteLogLocked(n.appendSnapshotLocked(nil), len(n.state), n.ops[n.applied-n.floor:]); err != nil {
			return err
		}
	}
	n.trimLocked()
	return nil
}

// trimLocked moves the in-memory floor up to retainFromLocked, never
// further: dropping the whole tail would put a voting member that is one
// RPC behind onto a full snapshot install, O(state) bytes to replace a
// handful of entries. A tail with room for fewer than SnapshotEvery ops
// (≤ 1,024) moves to a fresh array with room for twice that, so appends
// between two checkpoints never regrow it.
func (n *Node) trimLocked() {
	if keep := n.retainFromLocked(); keep > n.floor {
		n.floorTerm, _ = n.termAtLocked(keep)
		// Re-slice, never copy down: requests in flight share the backing
		// array. The dropped entries stay reachable only until the tail
		// moves to a fresh one.
		n.ops = n.ops[keep-n.floor:]
		n.floor = keep
	}
	if room := min(n.cfg.SnapshotEvery, 1<<10); cap(n.ops)-len(n.ops) < room {
		n.ops = append(make([]Op, 0, len(n.ops)+2*room), n.ops...)
	}
	n.sinceSnap = 0
}

// rewriteLogLocked atomically replaces the oplog with the snapshot
// record snap, whose state holds writes writes, followed by the records
// of tail: a crash leaves the old log or this one.
func (n *Node) rewriteLogLocked(snap []byte, writes int, tail []Op) error {
	recs := append(make([][]byte, 0, 1+len(tail)), snap)
	for i := range tail {
		recs = append(recs, tail[i].rec)
	}
	if err := n.log.Rewrite(recs); err != nil {
		return err
	}
	n.logRecs = writes + len(tail)
	return nil
}

// retainFromLocked is the floor a compaction may move to: the lowest
// position a voting member is known to hold (0 for one this node has no
// verified position for — every peer, on a node that is not leading),
// but never more than SnapshotEvery entries below the head, which bounds
// the tail however long a member stays away, and never past the applied
// index, where the snapshot is cut. A node without peers keeps only what
// it has not applied.
func (n *Node) retainFromLocked() uint64 {
	keep := n.lastIndex
	for _, url := range n.peers {
		match := uint64(0)
		if f := n.followers[url]; f != nil {
			match = f.match
		}
		keep = min(keep, match)
	}
	if every := uint64(n.cfg.SnapshotEvery); n.lastIndex > every {
		keep = max(keep, n.lastIndex-every)
	}
	return max(min(keep, n.applied), n.floor)
}

// appendSnapshotLocked appends the record of the snapshot at the applied
// index to b. Caller holds n.mu.
func (n *Node) appendSnapshotLocked(b []byte) []byte {
	term, _ := n.termAtLocked(n.applied)
	return appendSnapshot(b, &nodeSnapshot{
		LastIndex: n.applied, LastTerm: term,
		Config: n.appliedConfig, ConfigIndex: n.appliedConfigIndex,
	}, n.state)
}

// termAtLocked returns the term of the op at idx, when known: index 0
// is term 0, the floor's term comes from the snapshot, the tail from
// the ops slice. Compacted (below-floor) and not-yet-present indexes
// are unknown.
func (n *Node) termAtLocked(idx uint64) (uint64, bool) {
	switch {
	case idx < n.floor:
		return 0, false // compacted away (index 0 included, once the floor moved)
	case idx == n.floor:
		return n.floorTerm, true // floorTerm is 0 at a pristine floor of 0
	case idx <= n.lastIndex:
		return n.ops[idx-n.floor-1].Term, true
	default:
		return 0, false
	}
}

// Read serves the local replica, whatever the role: follower reads are
// the externally observable consistency surface the probe measures.
func (n *Node) Read(from simnet.Site, reader string) ([]service.Post, error) {
	return n.svc.Read(from, reader)
}

// emitLocked reports a protocol event. Caller holds n.mu.
func (n *Node) emitLocked(ev Event) {
	if n.cfg.OnEvent == nil {
		return
	}
	ev.Node = n.cfg.NodeID
	n.cfg.OnEvent(ev)
}

// stopLocked cancels every pending timer and breaks every inbound append
// stream, which http.Server.Close does not reach (stream.go).
func (n *Node) stopLocked() {
	for _, t := range []vtime.Timer{n.electionTimer, n.heartbeatTimer, n.pullTimer} {
		if t != nil {
			t.Stop()
		}
	}
	n.electionTimer, n.heartbeatTimer, n.pullTimer = nil, nil, nil
	for c := range n.inbound {
		c.Close()
	}
}

// closeStorageLocked releases the WAL and term store without a final
// compaction.
func (n *Node) closeStorageLocked() error {
	var err error
	if n.log != nil {
		err = n.log.Close()
		n.log = nil
	}
	if cerr := n.terms.close(); err == nil {
		err = cerr
	}
	n.terms = nil
	return err
}

// Close stops the node's timers and streams and releases the WAL. The
// oplog is rewritten as the final state, so a restart recovers from one
// record.
func (n *Node) Close() error {
	defer n.wire.close() // after n.mu is released: failing a call re-enters the node
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	n.stopLocked()
	n.commitCond.Broadcast()
	var err error
	if n.log != nil {
		err = n.compactLocked()
	}
	if cerr := n.closeStorageLocked(); err == nil {
		err = cerr
	}
	return err
}

// Kill stops the node abruptly — no final compaction, no graceful
// snapshot — leaving on disk exactly what was journaled, the way a
// kill -9 would. Harness crash drills use it so restarts exercise real
// WAL recovery.
func (n *Node) Kill() {
	defer n.wire.close() // after n.mu is released: failing a call re-enters the node
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	n.stopLocked()
	n.commitCond.Broadcast()
	_ = n.closeStorageLocked()
}
