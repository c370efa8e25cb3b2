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
// FuzzAppendOp holds the two encoders equal.

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
		b = append(b, '[')
		for i := range snap.State {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendOp(b, &snap.State[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
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
