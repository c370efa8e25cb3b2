package core

import (
	"bytes"
	"io"
	"strconv"
	"testing"

	"conprobe/internal/trace"
)

// FuzzDivergencePredicates checks the algebraic invariants of the two
// divergence conditions on arbitrary sequences — symmetry, irreflexivity,
// and subset behavior — and that both predicates, witness included, agree
// with the reference oracle on set-like sequences, on sequences with
// repeated IDs, and on long ones over a wide alphabet.
func FuzzDivergencePredicates(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{2, 1, 0})
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{3, 3, 3}, []byte{3})
	f.Add([]byte{0, 1, 2, 3, 4, 5}, []byte{5, 0})
	f.Add([]byte{0, 1, 0, 2, 1}, []byte{1, 0, 1, 2})
	long := make([]byte, 96)
	for i := range long {
		long[i] = byte(i)
	}
	swapped := bytes.Clone(long)
	swapped[7], swapped[80] = swapped[80], swapped[7]
	f.Add(long, swapped)
	f.Add(long, long[32:])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		s1 := seqFromBytes(a)
		s2 := seqFromBytes(b)
		requirePredicatesMatchReference(t, s1, s2)
		requirePredicatesMatchReference(t, rawSeqFromBytes(a, 16), rawSeqFromBytes(b, 16))
		requirePredicatesMatchReference(t, rawSeqFromBytes(a, 256), rawSeqFromBytes(b, 256))

		if ContentDiverged(s1, s2) != ContentDiverged(s2, s1) {
			t.Fatal("content divergence is not symmetric")
		}
		if OrderDiverged(s1, s2) != OrderDiverged(s2, s1) {
			t.Fatal("order divergence is not symmetric")
		}
		if ContentDiverged(s1, s1) {
			t.Fatal("sequence content-diverges from itself")
		}
		if OrderDiverged(s1, s1) {
			t.Fatal("sequence order-diverges from itself")
		}
		// A prefix never content-diverges from its extension and never
		// order-diverges either.
		if len(s1) > 1 {
			prefix := s1[:len(s1)/2]
			if ContentDiverged(prefix, s1) {
				t.Fatal("prefix content-diverges from extension")
			}
			if OrderDiverged(prefix, s1) {
				t.Fatal("prefix order-diverges from extension")
			}
		}
	})
}

// FuzzCheckTest runs the full checker suite over arbitrary decoded
// traces: no input may panic it, every checker and window scan must
// return what the reference oracle makes of the trace, and the
// collection-fault accounting must stay consistent with the per-agent
// maps. Each trace also goes through one index kept from input to input.
// The window scans
// return one row per declared pair, so they and
// the oracle (which also groups by the declared count) run only on traces
// declaring a plausible number of agents. Seeds include traces
// carrying the resilience-era SkippedOps/RetriedOps/BreakerTrips
// fields, which the checkers must tolerate alongside partial reads.
func FuzzCheckTest(f *testing.F) {
	f.Add([]byte(`{"test_id":1,"kind":1,"agents":3,` +
		`"writes":[{"id":"m1","agent":1,"seq":1}],` +
		`"reads":[{"agent":2,"observed":["m1"]},{"agent":3,"observed":[]}],` +
		`"failed_ops":{"2":1},"skipped_ops":{"3":2},"retried_ops":{"1":4},` +
		`"breaker_trips":{"3":1}}`))
	f.Add([]byte(`{"test_id":2,"kind":2,"agents":2,` +
		`"writes":[{"id":"a","agent":1,"seq":1},{"id":"b","agent":2,"seq":1}],` +
		`"reads":[{"agent":1,"observed":["a","b"]},{"agent":2,"observed":["b","a"]}],` +
		`"skipped_ops":{"1":1},"retried_ops":{"2":3}}`))
	f.Add([]byte(`{"kind":1,"agents":1,"reads":[{"agent":1}]}`))
	f.Add([]byte(`{"kind":2,"agents":3,"retried_ops":{"9":-1}}`))
	f.Add([]byte(`{"kind":2,"agents":2,"deltas_ns":{"2":-5},` +
		`"writes":[{"id":"a","agent":1,"seq":2},{"id":"b","agent":1,"seq":1,"trigger":"a"}],` +
		`"reads":[{"agent":1,"observed":["a","b","a"]},{"agent":2,"observed":["b","a","b"]},` +
		`{"agent":7,"observed":["b"]},{"agent":2,"observed":["c"]},{"agent":1,"observed":["b"]}]}`))

	// Agents re-reading their last timeline, the runs the divergence
	// passes decide once: tied invocations, a read that returns before
	// the one issued ahead of it, a clock delta that reorders the agents,
	// an A-B-A return and a third agent reading between two of a run.
	f.Add([]byte(`{"kind":2,"agents":3,"deltas_ns":{"2":-30000000},` +
		`"reads":[` +
		`{"agent":1,"invoked":"2026-01-01T00:00:00Z","returned":"2026-01-01T00:00:00.05Z","observed":["a","b"]},` +
		`{"agent":1,"invoked":"2026-01-01T00:00:00Z","returned":"2026-01-01T00:00:00.02Z","observed":["a","b"]},` +
		`{"agent":2,"invoked":"2026-01-01T00:00:00Z","returned":"2026-01-01T00:00:00.05Z","observed":["b","a"]},` +
		`{"agent":3,"invoked":"2026-01-01T00:00:00.01Z","returned":"2026-01-01T00:00:00.01Z","observed":["c"]},` +
		`{"agent":2,"invoked":"2026-01-01T00:00:00.01Z","returned":"2026-01-01T00:00:00.09Z","observed":["b","a"]},` +
		`{"agent":1,"invoked":"2026-01-01T00:00:00.06Z","returned":"2026-01-01T00:00:00.07Z","observed":["a"]},` +
		`{"agent":2,"invoked":"2026-01-01T00:00:00.06Z","returned":"2026-01-01T00:00:00.06Z","observed":["a","b"]},` +
		`{"agent":1,"invoked":"2026-01-01T00:00:00.08Z","returned":"2026-01-01T00:00:00.08Z","observed":["a","b"]},` +
		`{"agent":2,"invoked":"2026-01-01T00:00:00.09Z","returned":"2026-01-01T00:00:00.1Z","observed":["b","a"]}]}`))
	f.Add([]byte(`{"kind":2,"agents":3,` +
		`"reads":[{"agent":1,"observed":["x"]},{"agent":1,"observed":["x"]},{"agent":1,"observed":["x"]},` +
		`{"agent":2,"observed":["y"]},{"agent":2,"observed":["y"]},{"agent":3,"observed":[]},` +
		`{"agent":3,"observed":[]},{"agent":2,"observed":["x","y"]},{"agent":2,"observed":["y"]}]}`))

	// Declared counts no test has: the checkers go by the agents that read.
	f.Add([]byte(`{"kind":2,"agents":9223372036854775807,` +
		`"reads":[{"agent":1,"observed":["a","b"]},{"agent":2,"observed":["b","a"]}]}`))
	f.Add([]byte(`{"kind":2,"agents":4294967296,"failed_ops":{"1":2},` +
		`"reads":[{"agent":5,"observed":["a"]},{"agent":4294967296,"observed":["c"]}]}`))

	// Grown to a paper-sized Test 2 once; every input then meets it as a
	// trace showing all six anomalies left it.
	reused, dirty := NewIndex(test2Fixture(45)), multiAnomalyTrace()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := trace.NewReader(bytes.NewReader(data))
		reused.Reset(dirty)
		for _, a := range AllAnomalies() {
			reused.Check(a)
		}
		for _, a := range DivergenceAnomalies() {
			reused.Windows(a)
		}
		for {
			tr, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if tr.Agents <= 64 {
				requireMatchesReference(t, tr)
				requireIndexMatchesReference(t, reused.Reset(tr), tr, true)
			}
			vs := CheckTest(tr)
			// Grouping must partition the violations exactly.
			n := 0
			for _, g := range ByAnomaly(vs) {
				n += len(g)
			}
			if n != len(vs) {
				t.Fatalf("ByAnomaly groups %d violations, CheckTest found %d", n, len(vs))
			}
			// Collection faults are exactly the failed+skipped sum.
			want := 0
			for _, c := range tr.FailedOps {
				want += c
			}
			for _, c := range tr.SkippedOps {
				want += c
			}
			if got := tr.CollectionFaults(); got != want {
				t.Fatalf("CollectionFaults() = %d, want %d", got, want)
			}
		}
	})
}

// rawSeqFromBytes maps each byte to one of alphabet write IDs, repeats
// kept.
func rawSeqFromBytes(bs []byte, alphabet int) []trace.WriteID {
	out := make([]trace.WriteID, len(bs))
	for i, x := range bs {
		out[i] = trace.WriteID(strconv.Itoa(int(x) % alphabet))
	}
	return out
}

// seqFromBytes maps bytes to a duplicate-free sequence of write IDs,
// like service read results.
func seqFromBytes(bs []byte) []trace.WriteID {
	seen := make(map[byte]bool, len(bs))
	var out []trace.WriteID
	for _, x := range bs {
		x %= 16
		if !seen[x] {
			seen[x] = true
			out = append(out, trace.WriteID(string(rune('a'+x))))
		}
	}
	return out
}
