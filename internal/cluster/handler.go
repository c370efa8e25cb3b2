package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"conprobe/internal/jsonappend"
)

// StatusJSON is the /cluster/status payload.
type StatusJSON struct {
	NodeID string `json:"node_id"`
	Role   string `json:"role"`
	// Term is the node's current election term.
	Term uint64 `json:"term"`
	// LeaderID/LeaderURL name the leader this node currently follows
	// (or itself, when leading).
	LeaderID  string `json:"leader_id,omitempty"`
	LeaderURL string `json:"leader_url,omitempty"`
	LastIndex uint64 `json:"last_index"`
	// CommitIndex is the highest op known quorum-durable.
	CommitIndex uint64 `json:"commit_index"`
	// Members counts the voting members of the target configuration;
	// Joint is true while a reconfiguration's two-quorum phase is active.
	// Both are top-level so shell scripts can grep them out of the JSON.
	Members int  `json:"members"`
	Joint   bool `json:"joint"`
	// Config is the full voting configuration.
	Config Membership `json:"config"`
	// LeaseRemaining is how much leader-lease time is left (leaders
	// only; 0 when no lease is held or leases are disabled).
	LeaseRemaining time.Duration  `json:"lease_remaining_ns,omitempty"`
	Followers      []FollowerJSON `json:"followers,omitempty"`
	// StorageNotes lists what recovery had to tolerate on the last
	// boot (torn tails, quarantined segments, a forgotten term
	// record); empty after a clean boot.
	StorageNotes []string `json:"storage_notes,omitempty"`
	// Rebuilding is true while a quarantine-emptied node withholds
	// every vote grant (and its own candidacy) until it has re-sourced
	// its log from the current leader.
	Rebuilding bool `json:"rebuilding,omitempty"`
}

// FollowerJSON is one replica's progress as seen by the leader.
type FollowerJSON struct {
	Node string `json:"node"`
	// URL is the follower's base URL — the identity quorums count.
	URL string `json:"url,omitempty"`
	// Index is the highest op index the follower has reported durable.
	Index uint64 `json:"index"`
	// Match is the highest index verified to replicate the leader's own
	// log; only Match counts toward write quorums.
	Match uint64 `json:"match"`
	// Lag is how many ops the follower is behind the leader.
	Lag uint64 `json:"lag"`
	// SincePull is how long ago the follower last pulled or answered a
	// heartbeat.
	SincePull time.Duration `json:"since_pull_ns"`
}

// Status reports the node's replication state.
func (n *Node) Status() StatusJSON {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := StatusJSON{
		NodeID:      n.cfg.NodeID,
		Role:        n.role,
		Term:        n.currentTerm,
		LeaderID:    n.leaderID,
		LeaderURL:   n.leaderURL,
		LastIndex:   n.lastIndex,
		CommitIndex: n.commitIndex,
		Members:     len(n.config.New),
		Joint:       n.config.Joint(),
		Config:      n.config,
		Rebuilding:  n.rebuilding,
	}
	st.StorageNotes = append(st.StorageNotes, n.storageNotes...)
	if n.leaseValidLocked() {
		st.LeaseRemaining = n.leaseUntil.Sub(n.cfg.Clock.Now())
	}
	now := n.cfg.Clock.Now()
	for url, f := range n.followers {
		if f.lastSeen.IsZero() {
			continue // a member this leader addresses but has not heard from
		}
		lag := uint64(0)
		if n.lastIndex > f.reported {
			lag = n.lastIndex - f.reported
		}
		name := f.id
		if name == "" {
			name = url
		}
		st.Followers = append(st.Followers, FollowerJSON{
			Node: name, URL: url, Index: f.reported, Match: f.match, Lag: lag, SincePull: now.Sub(f.lastSeen),
		})
	}
	sort.Slice(st.Followers, func(i, j int) bool {
		if st.Followers[i].Node != st.Followers[j].Node {
			return st.Followers[i].Node < st.Followers[j].Node
		}
		return st.Followers[i].URL < st.Followers[j].URL
	})
	return st
}

// ReconfigureRequest is the /cluster/reconfigure body.
type ReconfigureRequest struct {
	Add    []Member `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// clusterLeaderHeader mirrors httpapi.LeaderHeader without importing it
// (httpapi depends on this package, not the reverse).
const clusterLeaderHeader = "X-Cluster-Leader"

// Handler serves the replication, election and membership endpoints
// (client reads at every mode are GET /posts?mode=, served by httpapi
// through ReadLinearizable):
//
//	GET  /cluster/status       role, term, commit index, config, follower progress
//	GET  /cluster/pull         catch-up: op tail after ?from=N&from_term=T (term-verified)
//	GET  /cluster/snapshot     one CRC-guarded snapshot chunk (?id=S&offset=N)
//	POST /cluster/vote         RequestVote RPC
//	GET  /cluster/append       the append stream (Upgrade: consvc-append/1): heartbeat frames, answered in order
//	POST /cluster/heartbeat    leader liveness + log append; the reply is the ack
//	POST /cluster/reconfigure  joint-consensus membership change
//
// There is no promote endpoint any more: leadership is only ever won in
// an election. A POSTed body over maxRPCBody is answered 413, one that
// does not decode 400. The heartbeat, the hot path, is decoded and
// answered without reflection (encode.go), in pooled buffers.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, n.Status())
	})
	mux.HandleFunc("/cluster/reconfigure", func(w http.ResponseWriter, r *http.Request) {
		var req ReconfigureRequest
		if !decodeRPC(w, r, func(body []byte) error { return json.Unmarshal(body, &req) }) {
			return
		}
		idx, err := n.Reconfigure(req.Add, req.Remove)
		if err == nil {
			err = n.WaitReconfigured(idx)
		}
		if err != nil {
			var nle *NotLeaderError
			switch {
			case errors.As(err, &nle):
				if nle.Leader != "" {
					w.Header().Set(clusterLeaderHeader, nle.Leader)
				}
				writeJSON(w, http.StatusMisdirectedRequest, map[string]string{
					"error": err.Error(), "leader": nle.Leader,
				})
			case idx == 0:
				// Refused before anything was appended (change already in
				// flight, bad member list): safe to retry later.
				writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			default:
				// Appended but not observed settling (leadership lost,
				// timeout). The change may still complete under a new leader.
				writeJSON(w, http.StatusAccepted, map[string]any{
					"error": err.Error(), "index": idx,
				})
			}
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"index": idx, "config": n.Membership()})
	})
	mux.HandleFunc("/cluster/pull", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		from, err := strconv.ParseUint(q.Get("from"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "from must be a non-negative integer"})
			return
		}
		// from_term and term default to 0 for legacy pullers.
		fromTerm, _ := strconv.ParseUint(q.Get("from_term"), 10, 64)
		term, _ := strconv.ParseUint(q.Get("term"), 10, 64)
		writeJSON(w, http.StatusOK, n.HandlePull(PullRequest{
			From: from, FromTerm: fromTerm, Term: term,
			Node: q.Get("node"), URL: q.Get("url"),
		}))
	})
	mux.HandleFunc("/cluster/snapshot", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		offset, _ := strconv.ParseUint(q.Get("offset"), 10, 64)
		writeJSON(w, http.StatusOK, n.HandleSnapshotChunk(SnapshotChunkRequest{
			ID: q.Get("id"), Offset: offset,
		}))
	})
	mux.HandleFunc("/cluster/vote", func(w http.ResponseWriter, r *http.Request) {
		var req VoteRequest
		if !decodeRPC(w, r, func(body []byte) error { return json.Unmarshal(body, &req) }) {
			return
		}
		writeJSON(w, http.StatusOK, n.HandleVote(req))
	})
	mux.HandleFunc("/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		// The request views the pooled body: answer it before it goes back.
		var resp HeartbeatResponse
		if !decodeRPC(w, r, func(body []byte) (err error) {
			resp, _, err = n.answerHeartbeat(body, nil)
			return err
		}) {
			return
		}
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusOK)
		buf := jsonappend.Get()
		*buf = appendHeartbeatResponse(*buf, &resp)
		_, _ = w.Write(*buf)
		jsonappend.Put(buf)
	})
	mux.HandleFunc("/cluster/append", n.serveAppend)
	return mux
}

// maxRPCBody caps a POSTed RPC body: room for the largest heartbeat —
// maxAppendBytes of op records plus one op whose record, its body escaped
// sixfold, alone exceeds it.
const maxRPCBody = 16 << 20

// decodeRPC hands a POSTed RPC body to decode, writing the error response
// itself when the request is unusable.
func decodeRPC(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
		return false
	}
	body, err := jsonappend.ReadAll(http.MaxBytesReader(w, r.Body, maxRPCBody), maxRPCBody)
	if err == nil {
		err = decode(*body)
		jsonappend.Put(body)
	}
	if err != nil {
		status, msg := http.StatusBadRequest, "malformed request body"
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			status, msg = http.StatusRequestEntityTooLarge, "request body too large"
		}
		writeJSON(w, status, map[string]string{"error": msg})
	}
	return err == nil
}

// jsonContentType is assigned to header maps, not set: shared, read only.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
