package cluster

import (
	"strconv"

	"conprobe/internal/jsonappend"
)

// The journal's op and snapshot records are JSON, and stay decodable by
// encoding/json; what writes them is an append-style encoder, because
// json.Marshal reflects over every op and returns a fresh buffer the
// size of its output — once per write for the journal record, and once
// per compaction for the whole state. The encoder below produces, byte
// for byte, what json.Marshal produces for Op and nodeSnapshot (field
// order, omitempty, HTML-safe escaping), into a buffer the caller
// keeps. Strings and a Membership go through internal/jsonappend, which
// copies plain printable ASCII and hands anything else to json.Marshal
// itself, so there is no second definition of escaping to keep in step.
// FuzzAppendOp holds the two encoders equal; FuzzAppendHeartbeat and
// FuzzDecodeHeartbeat do the same for the append RPC's codec.

// appendOp appends op as json.Marshal(op) would.
func appendOp(b []byte, op *Op) ([]byte, error) {
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
		var err error
		if b, err = jsonappend.Marshal(append(b, `,"c":`...), op.Config); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendSnapshot appends snap as json.Marshal(snap) would.
func appendSnapshot(b []byte, snap *nodeSnapshot) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"last_index":`...), snap.LastIndex, 10)
	if snap.LastTerm != 0 {
		b = strconv.AppendUint(append(b, `,"last_term":`...), snap.LastTerm, 10)
	}
	b = append(b, `,"state":`...)
	if snap.State == nil {
		b = append(b, "null"...)
	} else {
		var err error
		if b, err = appendOps(b, snap.State); err != nil {
			return nil, err
		}
	}
	if snap.Config != nil {
		var err error
		if b, err = jsonappend.Marshal(append(b, `,"config":`...), snap.Config); err != nil {
			return nil, err
		}
	}
	if snap.ConfigIndex != 0 {
		b = strconv.AppendUint(append(b, `,"config_index":`...), snap.ConfigIndex, 10)
	}
	return append(b, '}'), nil
}

// appendOps appends ops as a JSON array.
func appendOps(b []byte, ops []Op) ([]byte, error) {
	b = append(b, '[')
	for i := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendOp(b, &ops[i]); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

// appendHeartbeatRequest appends req as json.Marshal(req) would.
func appendHeartbeatRequest(b []byte, req *HeartbeatRequest) ([]byte, error) {
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
		var err error
		if b, err = appendOps(append(b, `,"ops":`...), req.Ops); err != nil {
			return nil, err
		}
	}
	if req.Round != 0 {
		b = strconv.AppendUint(append(b, `,"round":`...), req.Round, 10)
	}
	return append(b, '}'), nil
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

// decodeHeartbeatRequest sets *req, zero, to json.Unmarshal's reading
// of body.
func decodeHeartbeatRequest(body []byte, req *HeartbeatRequest) error {
	sc := jsonappend.NewScanner(body)
	scanHeartbeatRequest(&sc, req)
	return jsonappend.Fallback(&sc, body, req)
}

// scanHeartbeatRequest reads what appendHeartbeatRequest writes, but for
// a configuration op.
func scanHeartbeatRequest(sc *jsonappend.Scanner, req *HeartbeatRequest) {
	sc.Object("term", &req.Term, "leader", &req.Leader, "leader_url", &req.LeaderURL,
		"last_index", &req.LastIndex, "commit", &req.Commit, "prev", &req.Prev, "prev_term", &req.PrevTerm,
		"ops", func() {
			sc.Array(func() {
				var op Op
				sc.Object("i", &op.Index, "t", &op.Term, "k", &op.Kind, "s", &op.Site,
					"id", &op.ID, "a", &op.Author, "b", &op.Body, "d", &op.DependsOn)
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
