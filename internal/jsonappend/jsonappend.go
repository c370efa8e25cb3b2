// Package jsonappend holds what the repository's hand-written JSON
// codecs are built from. Each encoding primitive appends, byte for byte,
// what encoding/json would write for the value: the common case in
// place, and anything subtle — escaping, an unusual time, a map — by
// calling encoding/json itself. The Scanner reads back only what the
// encoders write (no whitespace, known keys in order, plain-digit
// numbers, strings without escapes in valid UTF-8), carving every string
// from one copy of its input, or its input (ScanInPlace); a decoder hands
// anything else to json.Unmarshal, so its values and errors are always
// encoding/json's.
package jsonappend

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"
	"unicode/utf8"
	"unsafe"
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

// Fallback ends a decoder: nil when sc has read all of b, else *v set to
// what json.Unmarshal reads from b into a zero T of its own (so that v
// does not escape on the fast path).
func Fallback[T any](sc *Scanner, b []byte, v *T) error {
	if sc.Done() {
		return nil
	}
	var fresh T
	err := json.Unmarshal(b, &fresh)
	*v = fresh
	return err
}

// Scanner reads the encoders' shape. Once the input departs from it the
// scan reads nothing more, and Done reports false.
type Scanner struct {
	s   string
	i   int
	bad bool
}

// NewScanner scans b.
func NewScanner(b []byte) Scanner { return Scanner{s: string(b)} }

// ScanInPlace scans b without copying it: each string read is a read-only
// view of b, kept only where b is never written again (a record carved
// from a block only ever appended to); of a reused buffer, a caller keeps
// clones, or equal strings it owns.
func ScanInPlace(b []byte) Scanner { return Scanner{s: unsafe.String(unsafe.SliceData(b), len(b))} }

// Done reports whether the input was one value of the encoders' shape,
// alone or followed by the newline json.Encoder adds.
func (sc *Scanner) Done() bool {
	return !sc.bad && (sc.i == len(sc.s) || sc.s[sc.i:] == "\n")
}

// Offset is how many bytes of the input the scan has read: the input
// between two offsets is the text of what was read between them.
func (sc *Scanner) Offset() int { return min(sc.i, len(sc.s)) } // a failed scan steps past the end

// Object reads an object. fields alternates each key the encoders may
// write, in their order, with where its value goes: a *string, *uint64 or
// *time.Time, or a func() reading the value itself. A key not among those
// after the last one read (unknown, out of order, repeated) fails.
func (sc *Scanner) Object(fields ...any) {
	sc.expect('{')
	for at, more := 0, false; sc.next('}', &more); at += 2 {
		key := sc.str()
		sc.expect(':')
		for ; at < len(fields); at += 2 {
			if k, _ := fields[at].(string); k == key {
				break
			}
		}
		if at == len(fields) || sc.bad {
			sc.bad = true
			return
		}
		switch v := fields[at+1].(type) {
		case *string:
			*v = sc.str()
		case *uint64:
			*v = sc.uint()
		case *time.Time:
			*v = sc.time()
		case func():
			v()
		}
	}
}

// Array reads a non-empty array, each element with elem (json.Unmarshal
// reads [] as an empty slice, which appending elements does not make).
func (sc *Scanner) Array(elem func()) {
	sc.expect('[')
	more := false
	for sc.next(']', &more) {
		elem()
	}
	sc.bad = sc.bad || !more
}

// next consumes the comma before another element of the container, and
// reports whether there is one, or consumes its close.
func (sc *Scanner) next(close byte, more *bool) bool {
	if sc.peek() == close {
		sc.i++
		return false
	}
	if *more {
		sc.expect(',')
	}
	*more = true
	return !sc.bad
}

func (sc *Scanner) peek() byte {
	if sc.bad || sc.i == len(sc.s) {
		return 0
	}
	return sc.s[sc.i]
}

// expect consumes c. A failed scan stays failed: peek reads 0 there.
func (sc *Scanner) expect(c byte) {
	sc.bad = sc.peek() != c
	sc.i++
}

func (sc *Scanner) str() string {
	sc.expect('"')
	for j, ascii := sc.i, true; j < len(sc.s) && !sc.bad; j++ {
		switch c := sc.s[j]; {
		case c == '"' && (ascii || utf8.ValidString(sc.s[sc.i:j])):
			v := sc.s[sc.i:j]
			sc.i = j + 1
			return v
		case c == '"' || c == '\\' || c < 0x20: // json.Unmarshal replaces invalid UTF-8
			sc.bad = true
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	sc.bad = true
	return ""
}

// uint reads plain digits, without a leading zero, that fit a uint64.
func (sc *Scanner) uint() uint64 {
	var v uint64
	j := sc.i
	for ; !sc.bad && j < len(sc.s) && '0' <= sc.s[j] && sc.s[j] <= '9'; j++ {
		d := uint64(sc.s[j] - '0')
		sc.bad = v > (math.MaxUint64-d)/10
		v = v*10 + d
	}
	if sc.bad || j == sc.i || (sc.s[sc.i] == '0' && j > sc.i+1) {
		sc.bad = true
		return 0
	}
	sc.i = j
	return v
}

func (sc *Scanner) time() (t time.Time) {
	start := sc.i
	if sc.str(); !sc.bad && t.UnmarshalJSON([]byte(sc.s[start:sc.i])) != nil {
		sc.bad = true
	}
	return t
}

var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Get takes an empty buffer from a pool; Put gives it back.
func Get() *[]byte {
	b := bufs.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// Put returns b to the pool. Nothing may use b afterwards.
func Put(b *[]byte) { bufs.Put(b) }

// ReadAll reads r to its end into a pooled buffer, which the caller gives
// back with Put. It fails, naming limit, once more than limit bytes arrive.
func ReadAll(r io.Reader, limit int) (*[]byte, error) {
	buf := Get()
	for b := slices.Grow(*buf, 512); ; b = slices.Grow(b, 1) {
		n, err := r.Read(b[len(b):cap(b)])
		if *buf = b[:len(b)+n]; len(*buf) > limit {
			err = fmt.Errorf("jsonappend: body over the %d-byte limit", limit)
		}
		if err == io.EOF {
			return buf, nil
		} else if err != nil {
			Put(buf)
			return nil, err
		}
		b = *buf
	}
}

// Bytes returns what appendTo appends, in a slice of exactly its length:
// the encoding grows a pooled buffer, and the copy is the one allocation.
func Bytes(appendTo func([]byte) ([]byte, error)) ([]byte, error) {
	buf := Get()
	defer Put(buf)
	b, err := appendTo(*buf)
	*buf = b
	return append([]byte(nil), b...), err
}
