package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/wal"
)

// recorded is op with the record appendOp makes for it, as a node that
// creates an op gives it one.
func recorded(op Op) Op {
	op.rec = appendOp(nil, &op)
	return op
}

// records lists the records of ops, nil for none.
func records(ops []Op) [][]byte {
	if ops == nil {
		return nil
	}
	recs := make([][]byte, len(ops))
	for i := range ops {
		recs[i] = ops[i].rec
	}
	return recs
}

// checkOpEncoding holds the append encoder to encoding/json for one op,
// which is both a snapshot element and a journal record.
func checkOpEncoding(t *testing.T, op Op) {
	t.Helper()
	want, err := json.Marshal(op)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendOp([]byte("x"), &op); !bytes.Equal(got[1:], want) {
		t.Fatalf("appendOp:\n got %s\nwant %s", got[1:], want)
	}
}

// FuzzAppendOp compares the append encoder with json.Marshal byte for
// byte — arbitrary and invalid-UTF-8 strings, the HTML-escaped
// characters, empty fields, a configuration op — then writes a snapshot
// record and the op records to an oplog the way a node does and requires
// recover to read back exactly what was encoded.
func FuzzAppendOp(f *testing.F) {
	f.Add(uint64(1), uint64(1), "write", "oregon", "p-1", "alice", "hello world", "")
	f.Add(uint64(9), uint64(0), "write", "", "", "", "", "p-0")
	f.Add(uint64(2), uint64(7), "reset", "", "", "", "", "")
	f.Add(uint64(5), uint64(2), "write", "tokyo", "<id>", "a&b", "quote\" slash\\   tab\t nul\x00", "\xff\xfe")
	f.Add(uint64(4), uint64(3), "config", "http://n1", "n2", "http://n2", "", "")
	f.Fuzz(func(t *testing.T, index, term uint64, kind, site, id, author, body, dep string) {
		op := Op{Index: index, Term: term, Kind: kind, Site: site, ID: id, Author: author, Body: body, DependsOn: dep}
		if kind == opConfig {
			// The string arguments double as member fields.
			op = Op{Index: index, Term: term, Kind: kind, Config: &Membership{
				New: []Member{{URL: site}, {ID: id, URL: author}},
			}}
			if body != "" {
				op.Config.Old = []Member{{ID: body, URL: dep}}
			}
		}
		checkOpEncoding(t, op)

		// Round trip: the node's own snapshot and op record writers, then
		// recover. Three ops at consecutive indexes above the snapshot's.
		if index > 1<<62 || index == 0 {
			return
		}
		dir := t.TempDir()
		base := nodeSnapshot{LastIndex: index - 1, LastTerm: term, State: []Op{}}
		if index > 1 {
			base.State = append(base.State, recorded(Op{Index: index - 1, Term: term, Kind: opWrite, ID: id, Author: author, Body: body}))
		}
		wantSnap, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		head := appendSnapshot(nil, &base, records(base.State))
		if !bytes.Equal(head, wantSnap) {
			t.Fatalf("appendSnapshot:\n got %s\nwant %s", head, wantSnap)
		}
		log, _, err := wal.Open(filepath.Join(dir, "oplog.log"), wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		ops := []Op{op, op, op}
		recs := [][]byte{head}
		for i := range ops {
			ops[i].Index = index + uint64(i)
			recs = append(recs, appendOp(nil, &ops[i]))
		}
		if err := log.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		log.Close()
		// A voting member keeps the recovered tail in memory; timers an
		// hour out keep it from doing anything else.
		n, err := NewNode(&memSvc{}, Config{
			NodeID: "n1", SelfURL: "http://self", Peers: []string{"http://peer"}, DataDir: dir, NoSync: true,
			ElectionTimeout: time.Hour, HeartbeatInterval: time.Hour, PullInterval: time.Hour,
		})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer n.Kill()
		if kind == opConfig {
			raw, _ := json.Marshal(op.Config)
			var back Membership
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if got := n.Membership(); !reflect.DeepEqual(got, back) {
				t.Fatalf("recovered configuration %+v, want %+v", got, back)
			}
			return
		}
		got := n.TailOps()
		if len(got) < len(ops) {
			t.Fatalf("recovered %d ops, journaled %d", len(got), len(ops))
		}
		for i, want := range ops {
			// What encoding/json would have read back from its own output:
			// invalid UTF-8 comes back as U+FFFD either way.
			raw, _ := json.Marshal(want)
			var back plainOp
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i].rec, recs[i+1]) {
				t.Fatalf("op %d recovered with the record %q, journaled %q", i, got[i].rec, recs[i+1])
			}
			if got[i].rec = nil; !reflect.DeepEqual(got[i], Op(back)) {
				t.Fatalf("op %d recovered as %+v, want %+v", i, got[i], back)
			}
		}
	})
}

// FuzzDecodeOp feeds arbitrary bytes to the op-record decoder: it must
// read what json.Unmarshal reads into a plainOp — Op without the method —
// keep a copy of the bytes it read as the op's record, nothing of the
// bytes themselves, and fail exactly when json.Unmarshal fails, with its
// error.
func FuzzDecodeOp(f *testing.F) {
	for _, s := range []string{
		`{"i":9,"t":3,"k":"write","s":"oregon","id":"p-1","a":"alice","b":"hi","d":"p-0"}`,
		`{"i":1,"k":"reset"}`, `{"i":2,"t":1,"k":"noop"}`,
		`{"i":4,"t":2,"k":"config","c":{"new":[{"id":"n1","url":"http://n1"}],"old":[{"url":"http://n0"}]}}`,
		`{"i":5,"k":"write","b":"caf\u00e9 \u003cb\u003e\"x\""}`, "{\"i\":5,\"b\":\"caf\xc3\xa9\"}", "{\"b\":\"\xff\"}",
		`{"k":"write","i":1}`, `{"i":1,"i":2}`, `{"I":1,"K":"write"}`, `{"i":1,"x":[1,{"y":2}]}`,
		`{"i":"1"}`, `{"i":-1}`, `{"i":1.0}`, `{"i":18446744073709551616}`, `{"i":01}`, `{"t":null}`,
		`{"c":5}`, `{"c":null}`, `null`, `{}`, ``, `[]`, ` {"i":1}`, `{"i":1} `, "{\"i\":1}\n", `{"i":1}x`, `{"i":1`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var got Op
		buf := bytes.Clone(b)
		err := got.UnmarshalJSON(buf)
		scribble(buf)
		var want plainOp
		wantErr := json.Unmarshal(b, &want)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%q: error %v, json.Unmarshal's %v", b, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got.rec, b) {
			t.Fatalf("%q: kept the record %q", b, got.rec)
		}
		if got.rec = nil; !reflect.DeepEqual(got, Op(want)) {
			t.Fatalf("%q:\n got %+v\nwant %+v", b, got, want)
		}
	})
}

// TestAppendSnapshotMatchesMarshal covers the snapshot shapes the fuzz
// target's fixed frame does not: a nil state, a configuration, and the
// omitempty fields both set and unset.
func TestAppendSnapshotMatchesMarshal(t *testing.T) {
	cfg := &Membership{New: []Member{{ID: "n1", URL: "http://n1"}}, Old: []Member{{URL: "http://n0"}}}
	for _, snap := range []nodeSnapshot{
		{},
		{LastIndex: 7, State: []Op{}},
		{LastIndex: 9, LastTerm: 3, State: writeOpsAt(8, 2, 3), Config: cfg, ConfigIndex: 4},
		{LastIndex: 1, State: []Op{recorded(Op{Index: 1, Kind: opConfig, Config: cfg}), recorded(Op{Index: 2, Kind: opReset})}},
	} {
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSnapshot(nil, &snap, records(snap.State)); !bytes.Equal(got, want) {
			t.Errorf("appendSnapshot:\n got %s\nwant %s", got, want)
		}
	}
}

// TestRecoverLoadsMarshalledSnapshot: the oplog's records are plain
// JSON — a snapshot record and op records marshalled with encoding/json,
// not the append encoder, load all the same.
func TestRecoverLoadsMarshalledSnapshot(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(filepath.Join(dir, "oplog.log"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []any{nodeSnapshot{LastIndex: 5, LastTerm: 1, State: writeOpsAt(1, 5, 1)}}
	for _, op := range writeOpsAt(6, 2, 1) {
		recs = append(recs, op)
	}
	for _, v := range recs {
		rec, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	n, err := NewNode(&memSvc{}, Config{NodeID: "n1", Role: RoleLeader, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	if got, want := fmt.Sprint(ids(t, n)), "[t1-1 t1-2 t1-3 t1-4 t1-5 t1-6 t1-7]"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
}

// dropSvc is a service that keeps nothing, so an allocation gate counts
// the node's own work.
type dropSvc struct{}

func (dropSvc) Name() string                                     { return "drop" }
func (dropSvc) Write(simnet.Site, service.Post) error            { return nil }
func (dropSvc) Read(simnet.Site, string) ([]service.Post, error) { return nil, nil }
func (dropSvc) Reset() error                                     { return nil }

// proposeWriteAllocs is what ProposeWrite allocates on a warm standalone
// leader with a journal: the ID list of the commit event, nothing else.
// It was 4 while the record went through json.Marshal (its buffer and
// the copy it returns) and wal.Append copied it into a fresh frame.
const proposeWriteAllocs = 1

// TestProposeWriteAllocs pins the write path's allocations.
func TestProposeWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n, err := NewNode(dropSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: t.TempDir(), NoSync: true, SnapshotEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	post := service.Post{ID: "p-1", Author: "alice", Body: "a post body of ordinary length, nothing to escape"}
	write := func() {
		if _, err := n.ProposeWrite(simnet.DCWest, post); err != nil {
			t.Fatal(err)
		}
	}
	// Warm until the log slices' next doubling is further off than the
	// measured run is long.
	for i := 0; i < 1100; i++ {
		write()
	}
	if got := testing.AllocsPerRun(500, write); got != proposeWriteAllocs {
		t.Fatalf("ProposeWrite allocates %v objects, pinned at %d", got, proposeWriteAllocs)
	}
}

// TestCompactionAllocsDoNotGrowWithState: a compaction encodes the whole
// state, but into the record buffer the node keeps, so what it allocates
// — temp file, rename, directory sync, the reopened log — is the same
// for 256 ops of state as for 4,096.
func TestCompactionAllocsDoNotGrowWithState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n, err := NewNode(dropSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: t.TempDir(), NoSync: true, SnapshotEvery: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	compact := func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if err := n.compactLocked(); err != nil {
			t.Fatal(err)
		}
	}
	grow := func(to int) float64 {
		for i := int(n.LastIndex()); i < to; i++ {
			p := service.Post{ID: fmt.Sprintf("p-%d", i), Author: "alice", Body: "a post body of ordinary length"}
			if _, err := n.ProposeWrite(simnet.DCWest, p); err != nil {
				t.Fatal(err)
			}
		}
		compact() // grows the record buffer to this state's size
		return testing.AllocsPerRun(5, compact)
	}
	small, large := grow(256), grow(4096)
	if large != small {
		t.Fatalf("compacting 4,096 ops allocates %v objects, 256 ops %v: the count grows with the state", large, small)
	}
	t.Logf("a compaction allocates %v objects at either size", small)
}

// BenchmarkCompactLargeState is one compaction of a standalone leader
// holding 20,000 applied writes: the oplog rewritten, and fsynced, as
// the snapshot record of the whole state.
func BenchmarkCompactLargeState(b *testing.B) {
	n, err := NewNode(dropSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: b.TempDir(), NoSync: true, SnapshotEvery: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Kill()
	for i := 0; i < 20000; i++ {
		p := service.Post{ID: fmt.Sprintf("p-%d", i), Author: "alice", Body: "a post body of ordinary length"}
		if _, err := n.ProposeWrite(simnet.DCWest, p); err != nil {
			b.Fatal(err)
		}
	}
	compact := func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if err := n.compactLocked(); err != nil {
			b.Fatal(err)
		}
	}
	compact() // grows the kept record buffer to the state's size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compact()
	}
}
