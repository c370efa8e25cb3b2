package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"conprobe/internal/jsonappend"
	"conprobe/internal/obs"
)

// The RPC message types exchanged between cluster nodes. Every message
// carries the sender's term so a stale participant — a deposed leader,
// a candidate from a healed partition — is discovered on first contact
// and steps down (or is refused) instead of acting on old authority.

// VoteRequest asks a peer for its vote in an election.
type VoteRequest struct {
	// Term is the election term the candidate is campaigning in.
	Term uint64 `json:"term"`
	// Candidate is the campaigning node's ID; CandidateURL its base URL.
	Candidate    string `json:"candidate"`
	CandidateURL string `json:"candidate_url"`
	// LastIndex/LastTerm describe the candidate's log head. A voter
	// grants only to candidates whose log is at least as up to date as
	// its own, so a leader missing quorum-acked writes cannot be elected.
	LastIndex uint64 `json:"last_index"`
	LastTerm  uint64 `json:"last_term"`
}

// VoteResponse answers a VoteRequest.
type VoteResponse struct {
	// Term is the voter's current term; a candidate seeing a higher term
	// abandons its campaign.
	Term uint64 `json:"term"`
	// Node names the voter; URL is its self-announced base URL, the
	// identity vote quorums are counted over (membership is URL-keyed).
	Node string `json:"node"`
	URL  string `json:"url,omitempty"`
	// Granted is true when the vote was cast for the candidate — durably:
	// the voter fsyncs its (term, votedFor) record before answering.
	Granted bool `json:"granted"`
}

// HeartbeatRequest is the leader's append RPC; with no Ops it is the
// periodic liveness announcement.
type HeartbeatRequest struct {
	Term      uint64 `json:"term"`
	Leader    string `json:"leader"`
	LeaderURL string `json:"leader_url"`
	// LastIndex is the leader's log head.
	LastIndex uint64 `json:"last_index"`
	// Commit is the leader's commit index (highest quorum-durable op).
	// The follower adopts it only as far as this request verified its log
	// against the leader's: min(Commit, Prev+len(Ops)).
	Commit uint64 `json:"commit"`
	// Prev/PrevTerm name the log position Ops continue from — where the
	// leader believes the follower's head is. The follower appends only
	// when its log holds that position with that term (log matching: the
	// whole prefix then agrees), skipping entries it already has; a Prev
	// beyond its head, or a term conflict at an index both hold, sends it
	// to the pull/snapshot path instead.
	Prev     uint64 `json:"prev,omitempty"`
	PrevTerm uint64 `json:"prev_term,omitempty"`
	// Ops are the entries after Prev, contiguous and bounded. The slice
	// aliases the leader's log: read-only.
	Ops []Op `json:"ops,omitempty"`
	// Round numbers this heartbeat broadcast. A quorum of responses
	// echoing the same round proves the sender still led at the instant
	// the round started — the basis for lease extension and read-index
	// (quorum-read) confirmation.
	Round uint64 `json:"round,omitempty"`
}

// HeartbeatResponse reports the follower's durable log position — after
// any Ops the request carried were fsynced and published, so it is the
// append's acknowledgement — which the leader counts toward write
// quorums (after verifying the position is consistent with its own
// log).
type HeartbeatResponse struct {
	Term      uint64 `json:"term"`
	Node      string `json:"node"`
	URL       string `json:"url,omitempty"`
	LastIndex uint64 `json:"last_index"`
	LastTerm  uint64 `json:"last_term"`
	// Round echoes the request's round number back to the leader.
	Round uint64 `json:"round,omitempty"`
}

// PullRequest asks the leader for the op-stream tail after From.
type PullRequest struct {
	// From is the puller's durable last index; FromTerm the term of the
	// op at that index. The leader serves the tail only when both match
	// its own log — the log-matching consistency check.
	From     uint64 `json:"from"`
	FromTerm uint64 `json:"from_term"`
	// Node names the puller; URL is its base URL, which is how the
	// leader's progress tracking (and so quorum counting) keys it.
	Node string `json:"node"`
	URL  string `json:"url,omitempty"`
	// Term is the puller's current term.
	Term uint64 `json:"term"`
}

// PullResponse carries the op tail, or one of the refusal modes.
type PullResponse struct {
	Term uint64 `json:"term"`
	// NotLeader reports the contacted node no longer leads; LeaderURL is
	// its best guess at who does.
	NotLeader bool   `json:"not_leader,omitempty"`
	LeaderURL string `json:"leader_url,omitempty"`
	// SnapshotNeeded reports that the puller's position was compacted
	// away or conflicts with the leader's log; either way the puller
	// must install the leader's snapshot.
	SnapshotNeeded bool   `json:"snapshot_needed,omitempty"`
	Ops            []Op   `json:"ops,omitempty"`
	LastIndex      uint64 `json:"last_index"`
	Commit         uint64 `json:"commit"`
}

// SnapshotChunkRequest asks the leader for one chunk of its snapshot
// stream. A fresh install sends {ID:"", Offset:0}; a resumed one names
// the stream it was reading and the byte offset it has buffered so far.
type SnapshotChunkRequest struct {
	ID     string `json:"id,omitempty"`
	Offset uint64 `json:"offset"`
}

// SnapshotChunkResponse carries one CRC-guarded chunk of the leader's
// frozen snapshot stream. The installer verifies each chunk's CRC,
// re-requests on mismatch or gap, and restarts from zero when the
// stream ID changes (the leader rebuilt its snapshot) — which makes the
// transfer both corruption-proof and resumable across link failures.
type SnapshotChunkResponse struct {
	Term      uint64 `json:"term"`
	NotLeader bool   `json:"not_leader,omitempty"`
	LeaderURL string `json:"leader_url,omitempty"`
	// ID identifies the frozen stream this chunk belongs to; all chunks
	// of one install must share it.
	ID string `json:"id"`
	// Total is the full stream length in bytes; Offset the chunk's start.
	Total  uint64 `json:"total"`
	Offset uint64 `json:"offset"`
	Data   []byte `json:"data"`
	// CRC is crc32.ChecksumIEEE(Data).
	CRC uint32 `json:"crc"`
}

// Transport delivers RPCs between nodes. Calls are asynchronous: done
// is invoked with the peer's response (or the delivery error) from an
// arbitrary goroutine — or, in the deterministic test harness, from the
// harness's event loop at a scheduled virtual instant. Node code never
// blocks on a transport call, which is what lets the same state machine
// run over real HTTP and inside a single-threaded simulation.
type Transport interface {
	RequestVote(peerURL string, req VoteRequest, done func(VoteResponse, error))
	Heartbeat(peerURL string, req HeartbeatRequest, done func(HeartbeatResponse, error))
	Pull(peerURL string, req PullRequest, done func(PullResponse, error))
	FetchSnapshotChunk(peerURL string, req SnapshotChunkRequest, done func(SnapshotChunkResponse, error))
}

// httpTransport is the production Transport: JSON over HTTP. The append
// RPC rides one long-lived stream per follower (stream.go), or a POST per
// call where the follower refuses the stream; every other RPC is one HTTP
// request on a goroutine of its own. Every RPC carries its own deadline
// (rpcTimeout) and the client has no timeout of its own: a hung peer
// must fail the call promptly, because appends, pulls and snapshot
// transfers run under in-flight guards (one at a time) and a stuck vote
// or heartbeat response is useless once the election or lease round it
// belongs to has moved on.
// Each peer URL is parsed once and every request shares one header map.
type httpTransport struct {
	hc *http.Client
	// timeout bounds every call: rpcTimeout, unless a test shortens it.
	timeout time.Duration
	// The cluster_append_streams gauge, cluster_append_fallbacks_total.
	streamsOpen *obs.Gauge
	fallbacks   *obs.Counter

	mu      sync.Mutex
	urls    map[peerPath]*url.URL
	streams map[string]*appendStream // by peer, connected or upgrading
	refused map[string]time.Time     // by peer: when to ask for a stream again
	closed  bool
}

type peerPath struct{ peer, path string }

// newHTTPTransport returns the transport with its metrics on m (nil-safe).
func newHTTPTransport(m *obs.Scope) *httpTransport {
	return &httpTransport{
		hc:          &http.Client{},
		timeout:     rpcTimeout,
		streamsOpen: m.Gauge("append_streams", "append streams this node has open to its followers"),
		fallbacks:   m.Counter("append_fallbacks_total", "append RPCs sent by POST because the follower refused the stream upgrade"),
		urls:        make(map[peerPath]*url.URL),
		streams:     make(map[string]*appendStream),
		refused:     make(map[string]time.Time),
	}
}

// rpcTimeout bounds each individual peer RPC.
const rpcTimeout = 5 * time.Second

var rpcHeader = http.Header{"Content-Type": jsonContentType}

// rpcContext returns the per-RPC deadline context.
func (t *httpTransport) rpcContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), t.timeout)
}

func (t *httpTransport) RequestVote(peer string, req VoteRequest, done func(VoteResponse, error)) {
	go func() {
		var resp VoteResponse
		err := t.post(peer, "/cluster/vote",
			func(b []byte) ([]byte, error) { return jsonappend.Marshal(b, req) },
			func(body []byte) error { return json.Unmarshal(body, &resp) })
		done(resp, err)
	}()
}

// Heartbeat queues req on peer's append stream, or POSTs it while peer
// refuses one. It never blocks: what it cannot send fails.
func (t *httpTransport) Heartbeat(peer string, req HeartbeatRequest, done func(HeartbeatResponse, error)) {
	s, err := t.stream(peer)
	if err == nil {
		err = s.send(req, done)
	}
	switch {
	case err == nil:
	case errors.Is(err, errUpgradeRefused):
		t.fallbacks.Inc()
		go t.heartbeat(peer, req, done)
	default:
		go done(HeartbeatResponse{}, err)
	}
}

func (t *httpTransport) heartbeat(peer string, req HeartbeatRequest, done func(HeartbeatResponse, error)) {
	var resp HeartbeatResponse
	url, node := peer, ""
	err := t.post(peer, "/cluster/heartbeat",
		func(b []byte) ([]byte, error) { return appendHeartbeatRequest(b, &req), nil },
		func(body []byte) error { return decodeReply(body, &resp, &url, &node) })
	done(resp, err)
}

func (t *httpTransport) Pull(peer string, req PullRequest, done func(PullResponse, error)) {
	go func() {
		var resp PullResponse
		u := fmt.Sprintf("%s/cluster/pull?from=%d&from_term=%d&term=%d&node=%s&url=%s",
			peer, req.From, req.FromTerm, req.Term, url.QueryEscape(req.Node), url.QueryEscape(req.URL))
		err := t.get(u, func(body []byte) error { return json.Unmarshal(body, &resp) })
		done(resp, err)
	}()
}

func (t *httpTransport) FetchSnapshotChunk(peer string, req SnapshotChunkRequest, done func(SnapshotChunkResponse, error)) {
	go func() {
		var resp SnapshotChunkResponse
		u := fmt.Sprintf("%s/cluster/snapshot?id=%s&offset=%d", peer, url.QueryEscape(req.ID), req.Offset)
		err := t.get(u, func(body []byte) error { return json.Unmarshal(body, &resp) })
		done(resp, err)
	}()
}

// post POSTs what encode appends to path on peer and hands the reply to
// decode.
func (t *httpTransport) post(peer, path string, encode func([]byte) ([]byte, error), decode func([]byte) error) error {
	u, err := t.peerURL(peer, path)
	if err != nil {
		return err
	}
	body, err := jsonappend.Bytes(encode)
	if err != nil {
		return err
	}
	ctx, cancel := t.rpcContext()
	defer cancel()
	return t.do(NewPost(ctx, u, rpcHeader, body), decode)
}

// NewPost is http.NewRequestWithContext's POST of body to u, less the URL
// parse and the header map: callers share u and header, read only. The
// body stays a bytes.Reader, which net/http sends in the same write as
// the header and GetBody can replay.
func NewPost(ctx context.Context, u *url.URL, header http.Header, body []byte) *http.Request {
	return (&http.Request{
		Method: http.MethodPost, URL: u, Host: u.Host, Header: header,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
		GetBody: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
	}).WithContext(ctx)
}

func (t *httpTransport) peerURL(peer, path string) (*url.URL, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.urls[peerPath{peer, path}]
	if u == nil {
		var err error
		if u, err = url.Parse(peer + path); err != nil {
			return nil, err
		}
		t.urls[peerPath{peer, path}] = u
	}
	return u, nil
}

func (t *httpTransport) get(u string, decode func([]byte) error) error {
	ctx, cancel := t.rpcContext()
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return t.do(hreq, decode)
}

// do sends hreq and hands the body of a 200 reply to decode.
func (t *httpTransport) do(hreq *http.Request, decode func([]byte) error) error {
	r, err := t.hc.Do(hreq)
	if err != nil {
		return err
	}
	body, err := jsonappend.ReadAll(r.Body, maxRPCBody)
	r.Body.Close()
	if err != nil {
		return err
	}
	defer jsonappend.Put(body)
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: status %d", hreq.URL, r.StatusCode)
	}
	return decode(*body)
}
