package trace

import (
	"bytes"
	"slices"
	"strconv"
	"time"

	"conprobe/internal/jsonappend"
)

// A trace is recorded once per test — twice when the campaign also
// journals it — and json.Marshal reflects over every field and allocates
// one object per timestamp, some 200 of them in a Test 2. AppendJSON is
// the one encoder under the JSONL writer and the checkpoint journal: it
// appends, byte for byte, what encoding/json writes for a TestTrace
// (field order, omitempty, null for a nil slice and [] for an empty one,
// map keys in string order) into a buffer the caller keeps. Strings and
// timestamps go through internal/jsonappend, which hands anything
// unusual to encoding/json; so do the per-agent fault maps and the chaos
// labels, which an undisturbed test does not carry. Decoding stays
// encoding/json. FuzzAppendTrace and FuzzReader hold the two encoders
// equal, in bytes and in which traces they refuse.

// AppendJSON appends t to dst as json.Marshal(t) writes it when version
// is 0, and as a JSONL line of that schema version — the same object
// with "v" ahead of its fields — otherwise. An error (a timestamp
// RFC 3339 cannot carry) is json.Marshal's own.
func AppendJSON(dst []byte, version int, t *TestTrace) ([]byte, error) {
	b := append(dst, '{')
	if version != 0 {
		b = strconv.AppendInt(append(b, `"v":`...), int64(version), 10)
		b = append(b, ',')
	}
	b = strconv.AppendInt(append(b, `"test_id":`...), int64(t.TestID), 10)
	b = strconv.AppendInt(append(b, `,"kind":`...), int64(t.Kind), 10)
	b = jsonappend.String(append(b, `,"service":`...), t.Service)
	b, err := jsonappend.Time(append(b, `,"started":`...), t.Started)
	if err != nil {
		return nil, err
	}
	b = strconv.AppendInt(append(b, `,"agents":`...), int64(t.Agents), 10)

	b = append(b, `,"writes":`...)
	if t.Writes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range t.Writes {
			w := &t.Writes[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonappend.String(append(b, `{"id":`...), string(w.ID))
			b = strconv.AppendInt(append(b, `,"agent":`...), int64(w.Agent), 10)
			b = strconv.AppendInt(append(b, `,"seq":`...), int64(w.Seq), 10)
			if b, err = appendSpan(b, w.Invoked, w.Returned); err != nil {
				return nil, err
			}
			if w.Trigger != "" {
				b = jsonappend.String(append(b, `,"trigger":`...), string(w.Trigger))
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}

	b = append(b, `,"reads":`...)
	if t.Reads == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range t.Reads {
			r := &t.Reads[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"agent":`...), int64(r.Agent), 10)
			if b, err = appendSpan(b, r.Invoked, r.Returned); err != nil {
				return nil, err
			}
			b = append(b, `,"observed":`...)
			if r.Observed == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, id := range r.Observed {
					if j > 0 {
						b = append(b, ',')
					}
					b = jsonappend.String(b, string(id))
				}
				b = append(b, ']')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}

	b = appendDurations(b, `,"deltas_ns":{`, t.Deltas)
	b = appendDurations(b, `,"uncertainty_ns":{`, t.Uncertainty)
	for _, f := range [...]struct {
		key string
		m   map[AgentID]int
	}{
		{`,"failed_ops":`, t.FailedOps}, {`,"skipped_ops":`, t.SkippedOps},
		{`,"retried_ops":`, t.RetriedOps}, {`,"breaker_trips":`, t.BreakerTrips},
	} {
		if len(f.m) > 0 {
			if b, err = jsonappend.Marshal(append(b, f.key...), f.m); err != nil {
				return nil, err
			}
		}
	}
	if len(t.ChaosActive) > 0 {
		if b, err = jsonappend.Marshal(append(b, `,"chaos_active":`...), t.ChaosActive); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendSpan appends an operation's two timestamps.
func appendSpan(b []byte, invoked, returned time.Time) ([]byte, error) {
	b, err := jsonappend.Time(append(b, `,"invoked":`...), invoked)
	if err != nil {
		return nil, err
	}
	return jsonappend.Time(append(b, `,"returned":`...), returned)
}

// appendDurations appends a per-agent duration map under key (which
// opens the object), or nothing when the map is empty. encoding/json
// orders an integer-keyed map by the keys' decimal strings — agent 10
// before agent 2 — and so does this.
func appendDurations(b []byte, key string, m map[AgentID]time.Duration) []byte {
	if len(m) == 0 {
		return b
	}
	var few [8]AgentID // the paper's deployment has three agents
	agents := few[:0]
	for a := range m {
		agents = append(agents, a)
	}
	slices.SortFunc(agents, func(x, y AgentID) int {
		var xb, yb [20]byte
		return bytes.Compare(strconv.AppendInt(xb[:0], int64(x), 10), strconv.AppendInt(yb[:0], int64(y), 10))
	})
	b = append(b, key...)
	for i, a := range agents {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, '"'), int64(a), 10)
		b = strconv.AppendInt(append(b, `":`...), int64(m[a]), 10)
	}
	return append(b, '}')
}
