package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is the JSONL trace schema version emitted by Writer.
//
// Version history:
//
//	0 (legacy)  lines without a "v" field, written before versioning
//	            existed; structurally identical to version 1.
//	1           explicit "v" field on every line.
//	2           adds "chaos_active": the labels of the chaos-schedule
//	            windows (partitions, outages, overloads) in force when
//	            the test started. Absent on undisturbed tests, so v1
//	            lines parse identically.
//
// Readers accept every version up to SchemaVersion and reject lines from
// the future, so a campaign archived today stays readable while a trace
// produced by a newer writer fails loudly instead of being silently
// misinterpreted.
const SchemaVersion = 2

// versionedLine is the on-disk envelope: the trace's own fields plus the
// schema version. Embedding keeps the wire format flat, so a legacy
// reader sees a normal trace line with one extra (ignored) field. It is
// the shape lines are decoded into; AppendJSON writes them.
type versionedLine struct {
	Version int `json:"v,omitempty"`
	*TestTrace
}

// Writer streams TestTraces to an io.Writer as JSON Lines, one trace per
// line. Every line carries the current SchemaVersion. It buffers
// internally; call Flush when done.
type Writer struct {
	bw   *bufio.Writer
	line []byte // the last line encoded, kept for its capacity
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write appends one trace as a JSON line stamped with SchemaVersion. A
// trace that cannot be encoded writes nothing.
func (w *Writer) Write(t *TestTrace) error {
	line, err := AppendJSON(w.line[:0], SchemaVersion, t)
	if err == nil {
		w.line = append(line, '\n')
		_, err = w.bw.Write(w.line)
	}
	if err != nil {
		return fmt.Errorf("encode trace %d: %w", t.TestID, err)
	}
	return nil
}

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader streams TestTraces from JSON Lines input. It accepts both
// legacy (unversioned) lines and lines versioned up to SchemaVersion;
// lines declaring a future version are rejected with a clear error.
//
// The reader is strictly line-oriented so errors carry a position: a
// malformed line is reported as "trace line N", and a final fragment
// with no trailing newline that fails to parse is reported as a
// truncated record — the signature of a crashed writer — rather than a
// bare unmarshal error.
type Reader struct {
	br   *bufio.Reader
	line int
	long []byte // holds a line longer than br's buffer, kept for its capacity
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// Read returns the next trace, or io.EOF when input is exhausted.
func (r *Reader) Read() (*TestTrace, error) {
	for {
		raw, err := r.readLine()
		complete := err == nil
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("trace line %d: %w", r.line+1, err)
		}
		if len(bytes.TrimSpace(raw)) == 0 {
			if !complete {
				return nil, io.EOF
			}
			// Skip blank lines without burning a trace slot; they still
			// count toward positions so errors match editor line numbers.
			r.line++
			continue
		}
		r.line++
		var t TestTrace
		line := versionedLine{TestTrace: &t}
		if err := json.Unmarshal(raw, &line); err != nil {
			if !complete {
				return nil, fmt.Errorf(
					"trace line %d: truncated record (no trailing newline; the writer likely crashed mid-append): %w",
					r.line, err)
			}
			return nil, fmt.Errorf("trace line %d: %w", r.line, err)
		}
		if line.Version > SchemaVersion {
			return nil, fmt.Errorf(
				"trace line %d has schema version %d; this reader supports up to version %d — upgrade to read it",
				r.line, line.Version, SchemaVersion)
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", r.line, err)
		}
		return &t, nil
	}
}

// readLine returns the next line, its newline included, valid until the
// next call: json.Unmarshal copies every string it keeps, so no record
// needs a line of its own. At end of input it returns what remains
// (possibly nothing) with io.EOF, as bufio.Reader.ReadBytes does.
func (r *Reader) readLine() ([]byte, error) {
	part, err := r.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return part, err
	}
	r.long = r.long[:0]
	for err == bufio.ErrBufferFull {
		r.long = append(r.long, part...)
		part, err = r.br.ReadSlice('\n')
	}
	r.long = append(r.long, part...)
	return r.long, err
}

// ReadAll consumes every remaining trace.
func (r *Reader) ReadAll() ([]*TestTrace, error) {
	var out []*TestTrace
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}
