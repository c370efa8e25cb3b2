package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

// checkEncoding holds AppendJSON to encoding/json for one trace, as a
// bare object and as a JSONL line: the same bytes, or the same refusal.
func checkEncoding(t *testing.T, tr *TestTrace) {
	t.Helper()
	for _, version := range []int{0, SchemaVersion} {
		var want []byte
		var wantErr error
		if version == 0 {
			want, wantErr = json.Marshal(tr)
		} else {
			want, wantErr = json.Marshal(versionedLine{Version: version, TestTrace: tr})
		}
		got, gotErr := AppendJSON([]byte("x"), version, tr)
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("version %d: AppendJSON error %v, json.Marshal's %v", version, gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got[1:], want) {
			t.Fatalf("version %d:\n got %s\nwant %s", version, got[1:], want)
		}
	}
}

// Bits of FuzzAppendTrace's shape argument: which slices and maps are
// nil, empty or filled.
const (
	shapeWrites      = 1 << iota // Writes non-nil
	shapeWrite                   // … and holds writes
	shapeReads                   // Reads non-nil
	shapeRead                    // … and holds reads
	shapeObserved                // the first read's Observed non-nil
	shapeObservation             // … and holds IDs
	shapeMaps                    // every per-agent map and the chaos labels non-nil
	shapeEntries                 // … and filled
)

// fuzzTrace builds the trace FuzzAppendTrace encodes from its arguments.
func fuzzTrace(id, trigger, service, label string, sec, nsec int64, zone int32, a1, a2 int, d int64, shape uint8) *TestTrace {
	at := time.Unix(sec, nsec).UTC()
	if zone != 0 {
		at = at.In(time.FixedZone("", int(zone)))
	}
	later := at.Add(time.Duration(d))
	tr := &TestTrace{TestID: a1, Kind: TestKind(a2), Service: service, Started: at, Agents: a2}
	if shape&shapeWrites != 0 {
		tr.Writes = []Write{}
	}
	if shape&shapeWrite != 0 {
		tr.Writes = append(tr.Writes,
			Write{ID: WriteID(id), Agent: AgentID(a1), Seq: a2, Invoked: at, Returned: later, Trigger: WriteID(trigger)},
			Write{ID: WriteID(trigger), Agent: AgentID(a2), Invoked: later.UTC(), Returned: at.UTC()})
	}
	if shape&shapeReads != 0 {
		tr.Reads = []Read{}
	}
	if shape&shapeRead != 0 {
		var observed []WriteID
		if shape&shapeObserved != 0 {
			observed = []WriteID{}
		}
		if shape&shapeObservation != 0 {
			observed = append(observed, WriteID(id), WriteID(trigger), WriteID(label))
		}
		tr.Reads = append(tr.Reads,
			Read{Agent: AgentID(a1), Invoked: at, Returned: later, Observed: observed},
			Read{Agent: AgentID(a2), Invoked: later, Returned: at, Observed: []WriteID{WriteID(id)}})
	}
	if shape&shapeMaps != 0 {
		tr.Deltas, tr.Uncertainty = map[AgentID]time.Duration{}, map[AgentID]time.Duration{}
		tr.FailedOps, tr.SkippedOps = map[AgentID]int{}, map[AgentID]int{}
		tr.RetriedOps, tr.BreakerTrips = map[AgentID]int{}, map[AgentID]int{}
		tr.ChaosActive = []string{}
	}
	if shape&shapeEntries != 0 {
		tr.Deltas = map[AgentID]time.Duration{AgentID(a1): time.Duration(d), AgentID(a2): 0, AgentID(a1 + a2): time.Duration(-d)}
		tr.Uncertainty = map[AgentID]time.Duration{AgentID(a2): time.Duration(d)}
		tr.FailedOps = map[AgentID]int{AgentID(a1): a2, AgentID(a2): a1}
		tr.SkippedOps = map[AgentID]int{AgentID(a2): 1}
		tr.RetriedOps = map[AgentID]int{AgentID(a1): 0}
		tr.BreakerTrips = map[AgentID]int{AgentID(a1): 1, AgentID(a2): 2}
		tr.ChaosActive = []string{label, id}
	}
	return tr
}

// FuzzAppendTrace compares AppendJSON with json.Marshal byte for byte,
// and in what they refuse, over traces built from the arguments: nil,
// empty and filled slices and maps, timestamps in other zones and in
// years RFC 3339 cannot carry, agent keys whose decimal strings sort
// differently from the numbers, and strings json.Marshal escapes.
func FuzzAppendTrace(f *testing.F) {
	const sec, nsec = int64(1467106215), int64(123456789)
	year10000 := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	yearMinus1 := time.Date(-1, 6, 1, 0, 0, 0, 0, time.UTC).Unix()
	f.Add("m1", "m2", "fbgroup", "partition:tokyo", sec, nsec, int32(0), 2, 10, int64(1500), uint8(0xff))
	f.Add("m1", "", "fbgroup", "", sec, int64(0), int32(0), 1, 3, int64(0), uint8(0))
	f.Add("m1", "", "fbgroup", "", sec, nsec, int32(0), 0, 0, int64(-7), uint8(shapeWrites|shapeReads|shapeMaps))
	f.Add("m1", "m1", "blogger", "", sec, nsec, int32(0), 1, 2, int64(5), uint8(shapeReads|shapeRead))
	f.Add("m1", "m1", "blogger", "", sec, nsec, int32(0), 1, 2, int64(5), uint8(shapeReads|shapeRead|shapeObserved))
	f.Add("m1", "m3", "gplus", "x", sec, nsec, int32(9*3600), 10, 2, int64(time.Second), uint8(0xff))
	f.Add("m1", "m3", "gplus", "x", sec, nsec, int32(-(3*3600 + 1807)), 3, 1, int64(-time.Hour), uint8(0xff))
	f.Add("m1", "m3", "gplus", "x", sec, nsec, int32(25*3600), 3, 1, int64(1), uint8(shapeWrites|shapeWrite))
	f.Add("m1", "", "fbfeed", "", year10000, int64(0), int32(0), 1, 2, int64(1), uint8(0xff))
	f.Add("m1", "", "fbfeed", "", year10000-1, int64(999999999), int32(0), 1, 2, int64(1), uint8(0xff))
	f.Add("m1", "", "fbfeed", "", yearMinus1, int64(0), int32(0), 1, 2, int64(1), uint8(shapeReads|shapeRead))
	f.Add(`<id>&"\`, "line\u2028sep", "ctl\x01\x7f", "bad\xff\xfeutf8", sec, nsec, int32(0), 2, 10, int64(9), uint8(0xff))
	f.Add("caf\u00e9", `"`, "\\", "<>&", sec, nsec, int32(0), -2, -10, int64(-9), uint8(0xff))
	f.Fuzz(func(t *testing.T, id, trigger, service, label string, sec, nsec int64, zone int32, a1, a2 int, d int64, shape uint8) {
		checkEncoding(t, fuzzTrace(id, trigger, service, label, sec, nsec, zone, a1, a2, d, shape))
	})
}

// TestAppendJSONOrdersAgentKeysAsStrings: encoding/json sorts an
// integer-keyed map by the keys' decimal strings, and a resumed campaign
// differs from an uninterrupted one if the journal does anything else.
// Twelve agents also outgrow the encoder's stack buffer.
func TestAppendJSONOrdersAgentKeysAsStrings(t *testing.T) {
	tr := &TestTrace{Deltas: map[AgentID]time.Duration{}}
	for a := AgentID(-1); a <= 12; a++ {
		tr.Deltas[a] = time.Duration(a) * time.Millisecond
	}
	checkEncoding(t, tr)
	got, err := AppendJSON(nil, 0, &TestTrace{Uncertainty: map[AgentID]time.Duration{2: 1, 10: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"uncertainty_ns":{"10":2,"2":1}}`; !bytes.HasSuffix(got, []byte(want)) {
		t.Fatalf("got %s, want it to end %s", got, want)
	}
}

// TestArchivedJSONLRoundTrips: the archive committed under testdata —
// what `conprobe -service fbgroup -test1 1 -test2 1 -seed 1 -trace`
// wrote, which scripts/resume_smoke.sh regenerates and compares — reads
// back and re-encodes to the same bytes.
func TestArchivedJSONLRoundTrips(t *testing.T) {
	archive, err := os.ReadFile("testdata/fbgroup_seed1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	traces, err := NewReader(bytes.NewReader(archive)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].Kind != Test1 || traces[1].Kind != Test2 {
		t.Fatalf("archive holds %d traces, want one Test 1 and one Test 2", len(traces))
	}
	var out bytes.Buffer
	w := NewWriter(&out)
	for _, tr := range traces {
		checkEncoding(t, tr)
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), archive) {
		t.Fatal("the archive re-encodes to different bytes")
	}
}

// test2Trace is a Test 2 shaped like a campaign's: three agents, one
// write each, readsPerAgent reads each, every read observing all three.
func test2Trace(readsPerAgent int) *TestTrace {
	tr := &TestTrace{
		TestID: 41, Kind: Test2, Service: "fbgroup", Started: t0, Agents: 3,
		Deltas:      map[AgentID]time.Duration{1: 5 * time.Millisecond, 2: -12 * time.Millisecond, 3: 0},
		Uncertainty: map[AgentID]time.Duration{1: 68 * time.Millisecond, 2: 40 * time.Millisecond, 3: 90 * time.Millisecond},
	}
	ids := []WriteID{"t41-a1-w1", "t41-a2-w1", "t41-a3-w1"}
	for a := 1; a <= 3; a++ {
		tr.Writes = append(tr.Writes, Write{ID: ids[a-1], Agent: AgentID(a), Seq: 1, Invoked: at(a), Returned: at(a + 40)})
		for i := 0; i < readsPerAgent; i++ {
			tr.Reads = append(tr.Reads, Read{Agent: AgentID(a), Invoked: at(50 + 30*i + a), Returned: at(70 + 30*i + a), Observed: ids})
		}
	}
	return tr
}

// TestTraceWriteAllocs: once the writer's line buffer has grown to the
// trace's size, writing a trace allocates nothing, however many reads
// it holds.
func TestTraceWriteAllocs(t *testing.T) {
	for _, reads := range []int{15, 45} {
		tr := test2Trace(reads)
		checkEncoding(t, tr)
		w := NewWriter(io.Discard)
		write := func() {
			if err := w.Write(tr); err != nil {
				t.Fatal(err)
			}
		}
		write()
		if got := testing.AllocsPerRun(50, write); got != 0 {
			t.Errorf("writing a Test 2 of %d reads per agent allocates %v objects, want 0", reads, got)
		}
	}
}

// failAfter fails every Write once n have succeeded.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestWriterWritesWholeLinesOrNothing: a trace that cannot be encoded
// leaves no partial line behind and the writer usable, and a failure of
// the underlying writer is reported.
func TestWriterWritesWholeLinesOrNothing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	bad := sampleTrace()
	bad.Reads[1].Returned = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := w.Write(sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(bad); err == nil {
		t.Fatal("a timestamp in year 10000 was encoded")
	}
	if err := w.Write(sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := 0; i < 2; i++ {
		if err := enc.Encode(versionedLine{Version: SchemaVersion, TestTrace: sampleTrace()}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("wrote\n%s\nwant json.Encoder's\n%s", buf.Bytes(), want.Bytes())
	}

	// A 12 KB line bypasses bufio's buffer, so the first Write already
	// reaches the failing writer.
	if err := NewWriter(&failAfter{}).Write(test2Trace(45)); err == nil {
		t.Fatal("a failed write was not reported")
	}
}

// TestReaderReusesItsLineBuffer: reading a record allocates what
// decoding it allocates, not a line as well — the lines here are 12 KB,
// three times bufio's buffer.
func TestReaderReusesItsLineBuffer(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 8
	for i := 0; i < n; i++ {
		if err := w.Write(test2Trace(45)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	line := buf.Bytes()[:buf.Len()/n]
	decode := testing.AllocsPerRun(10, func() {
		var tr TestTrace
		if err := json.Unmarshal(line, &versionedLine{TestTrace: &tr}); err != nil {
			t.Fatal(err)
		}
	})
	src := bytes.NewReader(nil)
	r := NewReader(src)
	read := testing.AllocsPerRun(10, func() {
		src.Reset(buf.Bytes())
		for i := 0; i < n; i++ {
			if _, err := r.Read(); err != nil {
				t.Fatal(err)
			}
		}
	})
	// A fresh line per record would be two objects more (ReadBytes keeps
	// the full buffers it passes, then joins them).
	perRecord := read / n
	if perRecord > decode+0.5 {
		t.Fatalf("reading a record allocates %.1f objects, decoding it %.1f", perRecord, decode)
	}
	t.Logf("reading a record allocates %.1f objects, decoding it %.1f", perRecord, decode)
}
