package cluster

import (
	"bytes"
	"encoding/json"
	"strconv"

	"conprobe/internal/jsonappend"
)

// An op's record is JSON that encoding/json reads back. appendOp writes
// it once, where the op is created, and every copy of the op carries it
// from there — the journal, each append, a follower's journal, the pull
// reply, a snapshot's state — so what writes a message that holds ops
// copies their records, and what reads one keeps the bytes each op was
// read from (Op.UnmarshalJSON, scanOp). The encoders produce, byte for
// byte, what json.Marshal produces for Op, nodeSnapshot and the append
// RPC, into a buffer the caller keeps; strings go through
// internal/jsonappend, so there is no second definition of escaping to
// keep in step. FuzzAppendOp, FuzzDecodeOp, FuzzAppendHeartbeat and
// FuzzDecodeHeartbeat hold each to encoding/json.

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
// ops whose records state lists; snap.State itself is not read.
func appendSnapshot(b []byte, snap *nodeSnapshot, state [][]byte) []byte {
	b = strconv.AppendUint(append(b, `{"last_index":`...), snap.LastIndex, 10)
	if snap.LastTerm != 0 {
		b = strconv.AppendUint(append(b, `,"last_term":`...), snap.LastTerm, 10)
	}
	b = append(b, `,"state":`...)
	if state == nil {
		b = append(b, "null"...)
	} else {
		b = appendRecords(b, len(state), func(i int) []byte { return state[i] })
	}
	if snap.Config != nil {
		b, _ = jsonappend.Marshal(append(b, `,"config":`...), snap.Config)
	}
	if snap.ConfigIndex != 0 {
		b = strconv.AppendUint(append(b, `,"config_index":`...), snap.ConfigIndex, 10)
	}
	return append(b, '}')
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
// a plainOp, and keeps a copy as the op's record: the one reading of an op
// record, which recovery, a snapshot's state, the pull reply and the
// append RPC reach through json.Unmarshal, or through scanOp itself.
func (op *Op) UnmarshalJSON(rec []byte) error {
	sc := jsonappend.NewScanner(rec)
	if scanOp(&sc, op); !sc.Done() {
		if err := json.Unmarshal(rec, (*plainOp)(op)); err != nil {
			return err
		}
	}
	op.rec = bytes.Clone(rec)
	return nil
}

// scanOp reads what appendOp writes, but for a configuration op.
func scanOp(sc *jsonappend.Scanner, op *Op) {
	sc.Object("i", &op.Index, "t", &op.Term, "k", &op.Kind, "s", &op.Site,
		"id", &op.ID, "a", &op.Author, "b", &op.Body, "d", &op.DependsOn)
}

// decodeHeartbeatRequest sets *req, zero, to json.Unmarshal's reading
// of body.
func decodeHeartbeatRequest(body []byte, req *HeartbeatRequest) error {
	sc := jsonappend.NewScanner(body)
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
		"round", &req.Round)
}

// decodeHeartbeatResponse sets *resp, zero, to json.Unmarshal's reading
// of body.
func decodeHeartbeatResponse(body []byte, resp *HeartbeatResponse) error {
	sc := jsonappend.NewScanner(body)
	scanHeartbeatResponse(&sc, resp)
	return jsonappend.Fallback(&sc, body, resp)
}

// scanHeartbeatResponse reads what appendHeartbeatResponse writes.
func scanHeartbeatResponse(sc *jsonappend.Scanner, resp *HeartbeatResponse) {
	sc.Object("term", &resp.Term, "node", &resp.Node, "url", &resp.URL,
		"last_index", &resp.LastIndex, "last_term", &resp.LastTerm, "round", &resp.Round)
}
