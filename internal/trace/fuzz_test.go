package trace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes through the JSONL decoder: it must
// never panic, and anything it successfully decodes must re-encode —
// through AppendJSON to exactly what encoding/json writes for it.
func FuzzReader(f *testing.F) {
	// Seed with a valid trace line and near-miss corruptions.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleTrace()); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(`{"test_id":1,"kind":9,"agents":-1}`))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"reads":[{"observed":["a","a"]}]}`))
	// Resilience-era collection accounting: the decoder must round-trip
	// the per-agent fault maps, including agents absent from the ops.
	f.Add([]byte(`{"test_id":3,"kind":1,"agents":3,` +
		`"failed_ops":{"1":2},"skipped_ops":{"2":1},` +
		`"retried_ops":{"1":5,"3":1},"breaker_trips":{"2":1}}`))
	f.Add([]byte(`{"skipped_ops":{"not-a-number":1}}`))
	// A declared agent count the record does not back must be refused
	// before anything is sized by it.
	f.Add([]byte(`{"test_id":1,"kind":2,"agents":4000000000,"reads":[{"agent":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			tr, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // malformed input is fine, panics are not
			}
			if tr.Agents > maxUnnamedAgents && tr.Agents > len(tr.Deltas)+len(tr.Writes)+len(tr.Reads) {
				t.Fatalf("reader passed a record declaring %d agents it cannot name", tr.Agents)
			}
			checkEncoding(t, tr)
			// Decoded traces must re-encode without error.
			var out bytes.Buffer
			w := NewWriter(&out)
			if err := w.Write(tr); err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			// And structural validation must not panic either.
			_ = tr.Validate()
		}
	})
}
