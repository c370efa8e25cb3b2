// Package jsonappend holds the three primitives the repository's
// append-style JSON encoders are built from. Each appends, byte for
// byte, what encoding/json would write for the value: the common case
// in place, and anything subtle — escaping, an unusual time, a map —
// by calling encoding/json itself, so there is no second definition of
// any of it. What they write is still read back with encoding/json.
package jsonappend

import (
	"encoding/json"
	"time"
)

// String appends s as a JSON string. Printable ASCII without the five
// characters json.Marshal escapes is copied between quotes; anything
// else is json.Marshal's to encode.
func String(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			esc, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Time appends t as json.Marshal(t) writes it. A UTC time in the years
// 0–9999 is formatted in place; a time in any other zone, or one whose
// year RFC 3339 cannot carry, is time.Time.MarshalJSON's to encode or
// refuse, and a refusal is reported as json.Marshal reports it.
func Time(b []byte, t time.Time) ([]byte, error) {
	if t.Location() == time.UTC {
		if y := t.Year(); y >= 0 && y <= 9999 {
			b = append(b, '"')
			b = t.AppendFormat(b, time.RFC3339Nano)
			return append(b, '"'), nil
		}
	}
	raw, err := t.MarshalJSON()
	if err != nil {
		return Marshal(b, t)
	}
	return append(b, raw...), nil
}

// Marshal appends json.Marshal(v).
func Marshal(b []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, raw...), nil
}
