package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"conprobe/internal/jsonappend"
)

// An op's record is JSON that encoding/json reads back. appendOp writes
// it once, where the op is created, and every copy of the op carries it
// from there — the journal, each append, pushed or pulled, a follower's
// journal, a snapshot's state — so what writes a message that holds ops
// copies their records. A node holds each op's bytes once, as its record,
// which the op's strings view (keepLocked); what reads a message reads it
// in place and keeps nothing of it (applyReplicatedLocked, own). The
// encoders produce, byte for byte, what json.Marshal produces for Op,
// nodeSnapshot and the append RPC, into a buffer the caller keeps;
// strings go through internal/jsonappend, so there is no second
// definition of escaping to keep in step. FuzzAppendOp, FuzzDecodeOp,
// FuzzAppendHeartbeat and FuzzDecodeHeartbeat hold each to encoding/json.

// appendOp appends op as json.Marshal(op) would.
func appendOp(b []byte, op *Op) []byte {
	b = strconv.AppendUint(append(b, `{"i":`...), op.Index, 10)
	if op.Term != 0 {
		b = strconv.AppendUint(append(b, `,"t":`...), op.Term, 10)
	}
	b = jsonappend.String(append(b, `,"k":`...), op.Kind)
	for _, f := range [...]struct{ key, val string }{
		{`,"s":`, op.Site}, {`,"id":`, op.ID}, {`,"a":`, op.Author}, {`,"b":`, op.Body}, {`,"d":`, op.DependsOn},
	} {
		if f.val != "" {
			b = jsonappend.String(append(b, f.key...), f.val)
		}
	}
	if op.Config != nil {
		b, _ = jsonappend.Marshal(append(b, `,"c":`...), op.Config) // strings and slices: cannot fail
	}
	return append(b, '}')
}

// appendSnapshot appends json.Marshal(snap) for a snap whose State is the
// ops whose records state lists; snap.State itself is not read. A
// snapshot is as large as the state it captures, so the record is sized
// from its parts first and b grows once, to exactly its length.
func appendSnapshot(b []byte, snap *nodeSnapshot, state [][]byte) []byte {
	var headBuf, tailBuf [64]byte
	head := strconv.AppendUint(append(headBuf[:0], `{"last_index":`...), snap.LastIndex, 10)
	if snap.LastTerm != 0 {
		head = strconv.AppendUint(append(head, `,"last_term":`...), snap.LastTerm, 10)
	}
	head = append(head, `,"state":`...)
	tail := tailBuf[:0]
	if snap.Config != nil {
		tail, _ = jsonappend.Marshal(append(tail, `,"config":`...), snap.Config) // strings and slices: cannot fail
	}
	if snap.ConfigIndex != 0 {
		tail = strconv.AppendUint(append(tail, `,"config_index":`...), snap.ConfigIndex, 10)
	}
	tail = append(tail, '}')
	size := len(head) + len("null") + len(tail)
	if state != nil {
		size = len(head) + len("[]") + max(len(state)-1, 0) + len(tail)
		for _, rec := range state {
			size += len(rec)
		}
	}
	if cap(b)-len(b) < size {
		b = append(make([]byte, 0, len(b)+size), b...)
	}
	b = append(b, head...)
	if state == nil {
		b = append(b, "null"...)
	} else {
		b = appendRecords(b, len(state), func(i int) []byte { return state[i] })
	}
	return append(b, tail...)
}

// commitKey opens a commit record, {"commit":<applied>}: the oplog's one
// local record, naming an index its node had committed and applied. An
// Op reads one without error, as index 0, so what reads the oplog tells
// the two apart by this first key before decoding.
const commitKey = `{"commit":`

// appendCommit appends the commit record for applied.
func appendCommit(b []byte, applied uint64) []byte {
	return append(strconv.AppendUint(append(b, commitKey...), applied, 10), '}')
}

// decodeCommit reads rec when it is a commit record; is reports whether
// it is one.
func decodeCommit(rec []byte) (applied uint64, is bool, err error) {
	if !bytes.HasPrefix(rec, []byte(commitKey)) {
		return 0, false, nil
	}
	sc := jsonappend.NewScanner(rec)
	if sc.Object("commit", &applied); !sc.Done() {
		return 0, true, fmt.Errorf("cluster: malformed commit record %q", rec)
	}
	return applied, true, nil
}

// appendRecords appends the n records rec returns as a JSON array.
func appendRecords(b []byte, n int, rec func(i int) []byte) []byte {
	b = append(b, '[')
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, rec(i)...)
	}
	return append(b, ']')
}

// appendHeartbeatRequest appends req as json.Marshal(req) would.
func appendHeartbeatRequest(b []byte, req *HeartbeatRequest) []byte {
	b = strconv.AppendUint(append(b, `{"term":`...), req.Term, 10)
	b = jsonappend.String(append(b, `,"leader":`...), req.Leader)
	b = jsonappend.String(append(b, `,"leader_url":`...), req.LeaderURL)
	b = strconv.AppendUint(append(b, `,"last_index":`...), req.LastIndex, 10)
	b = strconv.AppendUint(append(b, `,"commit":`...), req.Commit, 10)
	if req.Prev != 0 {
		b = strconv.AppendUint(append(b, `,"prev":`...), req.Prev, 10)
	}
	if req.PrevTerm != 0 {
		b = strconv.AppendUint(append(b, `,"prev_term":`...), req.PrevTerm, 10)
	}
	if len(req.Ops) > 0 {
		b = appendRecords(append(b, `,"ops":`...), len(req.Ops), func(i int) []byte { return req.Ops[i].rec })
	}
	if req.Round != 0 {
		b = strconv.AppendUint(append(b, `,"round":`...), req.Round, 10)
	}
	if req.Snapshot {
		b = append(b, `,"snapshot":true`...)
	}
	return append(b, '}')
}

// appendHeartbeatResponse appends what json.Encoder writes for resp,
// the trailing newline included.
func appendHeartbeatResponse(b []byte, resp *HeartbeatResponse) []byte {
	b = strconv.AppendUint(append(b, `{"term":`...), resp.Term, 10)
	b = jsonappend.String(append(b, `,"node":`...), resp.Node)
	if resp.URL != "" {
		b = jsonappend.String(append(b, `,"url":`...), resp.URL)
	}
	b = strconv.AppendUint(append(b, `,"last_index":`...), resp.LastIndex, 10)
	b = strconv.AppendUint(append(b, `,"last_term":`...), resp.LastTerm, 10)
	if resp.Round != 0 {
		b = strconv.AppendUint(append(b, `,"round":`...), resp.Round, 10)
	}
	return append(b, "}\n"...)
}

// plainOp is Op without its method: what encoding/json reads an op
// record into where scanOp cannot.
type plainOp Op

// UnmarshalJSON reads rec, one op record, as encoding/json reads it into
// a plainOp, from a copy it keeps as the op's record: the one reading of
// an op record, which a snapshot's state and a pulled append reach through
// json.Unmarshal, recovery and a pushed append through decode.
func (op *Op) UnmarshalJSON(rec []byte) error {
	return op.decode(bytes.Clone(rec))
}

// decode is UnmarshalJSON keeping rec itself as the op's record, and its
// strings as views of rec, for a record nothing writes again: a copy, a
// record recovery read from the oplog, or one in a node's block.
func (op *Op) decode(rec []byte) error {
	sc := jsonappend.ScanInPlace(rec)
	if scanOp(&sc, op); !sc.Done() {
		p := plainOp(*op) // not op itself, which would then escape on the fast path too
		if err := json.Unmarshal(rec, &p); err != nil {
			return err
		}
		*op = Op(p)
	}
	op.rec = rec
	return nil
}

// scanOp reads what appendOp writes, but for a configuration op.
func scanOp(sc *jsonappend.Scanner, op *Op) {
	sc.Object("i", &op.Index, "t", &op.Term, "k", &op.Kind, "s", &op.Site,
		"id", &op.ID, "a", &op.Author, "b", &op.Body, "d", &op.DependsOn)
}

// decodeHeartbeatRequest sets *req, zero but for the ops it may append
// to, to json.Unmarshal's reading of body, in place: its strings and its
// ops' records and strings may view body.
func decodeHeartbeatRequest(body []byte, req *HeartbeatRequest) error {
	sc := jsonappend.ScanInPlace(body)
	scanHeartbeatRequest(&sc, body, req)
	return jsonappend.Fallback(&sc, body, req)
}

// scanHeartbeatRequest reads what appendHeartbeatRequest writes, but for
// a configuration op, from body, which each op's record aliases.
func scanHeartbeatRequest(sc *jsonappend.Scanner, body []byte, req *HeartbeatRequest) {
	sc.Object("term", &req.Term, "leader", &req.Leader, "leader_url", &req.LeaderURL,
		"last_index", &req.LastIndex, "commit", &req.Commit, "prev", &req.Prev, "prev_term", &req.PrevTerm,
		"ops", func() {
			sc.Array(func() {
				var op Op
				start := sc.Offset()
				scanOp(sc, &op)
				op.rec = body[start:sc.Offset():sc.Offset()]
				req.Ops = append(req.Ops, op)
			})
		},
		"round", &req.Round, "snapshot", &req.Snapshot)
}

// decodeHeartbeatResponse sets *resp, zero, to json.Unmarshal's reading
// of body, in place: its strings may view body.
func decodeHeartbeatResponse(body []byte, resp *HeartbeatResponse) error {
	sc := jsonappend.ScanInPlace(body)
	scanHeartbeatResponse(&sc, resp)
	return jsonappend.Fallback(&sc, body, resp)
}

// scanHeartbeatResponse reads what appendHeartbeatResponse writes.
func scanHeartbeatResponse(sc *jsonappend.Scanner, resp *HeartbeatResponse) {
	sc.Object("term", &resp.Term, "node", &resp.Node, "url", &resp.URL,
		"last_index", &resp.LastIndex, "last_term", &resp.LastTerm, "round", &resp.Round)
}

// own returns s, which may view a reused buffer, as held when the two are
// equal, else as a clone: what a node keeps of a message read in place.
func own(s, held string) string {
	if s == held {
		return held
	}
	return strings.Clone(s)
}
