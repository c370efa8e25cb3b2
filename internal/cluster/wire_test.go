package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"conprobe/internal/jsonappend"
	"conprobe/internal/simnet"
)

// heartbeatPair builds a request and a response from fuzz arguments: up
// to three write ops of the given fields, then a configuration op when
// config is set.
func heartbeatPair(term, last, commit, prev, prevTerm, round uint64, leader, url, kind, site, id, author, body, dep string, nops uint8, config bool) (HeartbeatRequest, HeartbeatResponse) {
	req := HeartbeatRequest{
		Term: term, Leader: leader, LeaderURL: url, LastIndex: last, Commit: commit,
		Prev: prev, PrevTerm: prevTerm, Round: round,
	}
	for i := uint64(0); i < uint64(nops%4); i++ {
		req.Ops = append(req.Ops, Op{Index: prev + i + 1, Term: prevTerm + i, Kind: kind, Site: site, ID: id, Author: author, Body: body, DependsOn: dep})
	}
	if config {
		req.Ops = append(req.Ops, Op{Index: last, Kind: opConfig, Config: &Membership{New: []Member{{ID: id, URL: url}}}})
	}
	resp := HeartbeatResponse{Term: term, Node: leader, URL: url, LastIndex: last, LastTerm: prevTerm, Round: round}
	return req, resp
}

// FuzzAppendHeartbeat holds the append RPC's encoders to encoding/json
// byte for byte — the request to json.Marshal, the response to
// json.Encoder, newline included — and requires the decoders to read
// back what json.Unmarshal reads, on the fast path whenever the bytes
// hold no escape and no configuration op.
func FuzzAppendHeartbeat(f *testing.F) {
	f.Add(uint64(3), uint64(9), uint64(8), uint64(8), uint64(3), uint64(41), "n1", "http://127.0.0.1:18191",
		"write", "oregon", "p-1", "alice", "hello world", "", uint8(1), false)
	f.Add(uint64(1), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), "", "", "", "", "", "", "", "", uint8(0), false)
	f.Add(uint64(2), uint64(5), uint64(4), uint64(4), uint64(2), uint64(1), "n2", "http://n2", "write", "tokyo", "<id>",
		"a&b", "quote\" slash\\ tab\t nul\x00 caf\u00e9 \xff", "p-0", uint8(3), true)
	f.Add(uint64(1<<63), uint64(1<<64-1), uint64(7), uint64(6), uint64(1), uint64(0), "caf\u00e9", "line\u2028sep", "reset", "", "", "", "", "", uint8(2), false)
	f.Fuzz(func(t *testing.T, term, last, commit, prev, prevTerm, round uint64, leader, url, kind, site, id, author, body, dep string, nops uint8, config bool) {
		req, resp := heartbeatPair(term, last, commit, prev, prevTerm, round, leader, url, kind, site, id, author, body, dep, nops, config)

		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendHeartbeatRequest([]byte("x"), &req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[1:], want) {
			t.Fatalf("appendHeartbeatRequest:\n got %s\nwant %s", got[1:], want)
		}
		var sent bytes.Buffer
		if err := json.NewEncoder(&sent).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendHeartbeatResponse([]byte("x"), &resp); !bytes.Equal(got[1:], sent.Bytes()) {
			t.Fatalf("appendHeartbeatResponse:\n got %s\nwant %s", got[1:], sent.Bytes())
		}

		checkHeartbeatDecoders(t, want)
		checkHeartbeatDecoders(t, sent.Bytes())
		if sc := jsonappend.NewScanner(want); !bytes.Contains(want, []byte(`\`)) && !config {
			if scanHeartbeatRequest(&sc, new(HeartbeatRequest)); !sc.Done() {
				t.Fatalf("the fast path refused the encoder's own request %s", want)
			}
		}
		if sc := jsonappend.NewScanner(sent.Bytes()); !bytes.Contains(sent.Bytes(), []byte(`\`)) {
			if scanHeartbeatResponse(&sc, new(HeartbeatResponse)); !sc.Done() {
				t.Fatalf("the fast path refused the encoder's own response %s", sent.Bytes())
			}
		}
	})
}

// checkHeartbeatDecoders requires both decoders to read b as
// json.Unmarshal does: the same value, or the same error.
func checkHeartbeatDecoders(t *testing.T, b []byte) {
	t.Helper()
	var req, wantReq HeartbeatRequest
	sameDecode(t, b, decodeHeartbeatRequest(b, &req), json.Unmarshal(b, &wantReq), req, wantReq)
	var resp, wantResp HeartbeatResponse
	sameDecode(t, b, decodeHeartbeatResponse(b, &resp), json.Unmarshal(b, &wantResp), resp, wantResp)
}

func sameDecode(t *testing.T, b []byte, err, wantErr error, got, want any) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: error %v, json.Unmarshal's %v", b, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", b, got, want)
	}
}

// FuzzDecodeHeartbeat feeds arbitrary bytes to both append RPC decoders:
// each must return json.Unmarshal's value, and fail exactly when it
// fails, with its error. The seeds are the shapes the fast path must
// hand over: case-folded, repeated and out-of-order keys, null, an empty
// op list, a configuration op, over-long and non-plain numbers, escapes,
// invalid UTF-8 and whitespace.
func FuzzDecodeHeartbeat(f *testing.F) {
	for _, s := range []string{
		`{"term":3,"leader":"n1","leader_url":"http://n1","last_index":9,"commit":8,"prev":8,"prev_term":3,"ops":[{"i":9,"t":3,"k":"write","s":"oregon","id":"p-1","a":"alice","b":"hi","d":"p-0"}],"round":4}`,
		`{"term":3,"node":"n2","url":"http://n2","last_index":9,"last_term":3,"round":4}` + "\n",
		`{"term":3,"Leader":"n1"}`, `{"TERM":3}`, `{"term":3,"leader":null}`, `{"term":null}`, `null`, `{}`, ``,
		`{"term":3,"term":4}`, `{"round":1,"term":3}`, `{"term":1,"ops":[]}`, `{"term":1,"ops":null}`,
		`{"term":1,"ops":[{"i":1,"t":5}],"ops":[{"i":2}]}`, // json.Unmarshal decodes the second list into the first's ops
		`{"term":1,"ops":[{"i":1,"k":"config","c":{"new":[{"id":"a","url":"http://a"}]}}]}`,
		`{"term":1,"ops":[{"i":1,"k":"write","i":2}]}`, `{"term":1,"ops":[{"k":"write","i":1}]}`,
		`{"term":18446744073709551615}`, `{"term":18446744073709551616}`, `{"term":012}`, `{"term":0}`,
		`{"term":1.0}`, `{"term":-1}`, `{"term":1e2}`, `{"term":"1"}`,
		`{"leader":"a\u0062"}`, `{"leader":"\ufffd"}`, "{\"leader\":\"\xff\"}", "{\"leader\":\"caf\xc3\xa9\"}",
		"{\"leader\":\"tab\there\"}", ` {"term":1}`, `{"term": 1}`, "{\"term\":1}\n", "{\"term\":1}\n\n", `{"term":1} `,
		`{"term":1}x`, `{"term":1,}`, `{"term":1`, `[{"term":1}]`, `{"term":1,"unknown":[1,{"a":2}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkHeartbeatDecoders)
}

// captureRequests answers one request per send on a loopback listener,
// each with answer, and returns every request's bytes as they arrived.
func captureRequests(t *testing.T, answer string, sends ...func(base string)) [][]byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var raws [][]byte
	for _, send := range sends {
		got := make(chan []byte, 1)
		go func() {
			var raw bytes.Buffer
			defer func() { got <- raw.Bytes() }()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if req, err := http.ReadRequest(bufio.NewReader(io.TeeReader(conn, &raw))); err == nil {
				_, _ = io.Copy(io.Discard, req.Body)
			}
			fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(answer), answer)
		}()
		send("http://" + ln.Addr().String())
		raws = append(raws, <-got)
	}
	return raws
}

// TestAppendRPCWireUnchanged: the append RPC goes out byte for byte as it
// did when it was built with json.Marshal, http.NewRequest and
// Header.Set, and the follower answers with what writeJSON wrote.
func TestAppendRPCWireUnchanged(t *testing.T) {
	req, _ := heartbeatPair(3, 9, 8, 8, 3, 41, "n1", "http://n1", "write", "oregon", "p-1", "alice", "caf\u00e9 <b>", "", 2, true)
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	raws := captureRequests(t, `{"term":3,"node":"f","last_index":9,"last_term":3}`,
		func(base string) {
			done := make(chan error)
			(&httpTransport{hc: hc}).Heartbeat(base, req, func(_ HeartbeatResponse, err error) { done <- err })
			if err := <-done; err != nil {
				t.Error(err)
			}
		},
		func(base string) {
			body, _ := json.Marshal(req)
			hreq, _ := http.NewRequest(http.MethodPost, base+"/cluster/heartbeat", bytes.NewReader(body))
			hreq.Header.Set("Content-Type", "application/json")
			if resp, err := hc.Do(hreq); err == nil {
				resp.Body.Close()
			}
		})
	if len(raws[0]) == 0 || !bytes.Equal(raws[0], raws[1]) {
		t.Fatalf("append RPC on the wire:\n%q\nwas\n%q", raws[0], raws[1])
	}

	f := pushFollower(t, &pullCapture{}, nil)
	body, _ := json.Marshal(req)
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	f.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", bytes.NewReader(body)))
	writeJSONReflect(want, f.HandleHeartbeat(req)) // the same request again changes nothing
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("answer %d %v %q, was %d %v %q", got.Code, got.Header(), got.Body.Bytes(), want.Code, want.Header(), want.Body.Bytes())
	}
}

// writeJSONReflect is how a heartbeat was answered before it had an
// encoder of its own.
func writeJSONReflect(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

// TestRPCBodyOverCapIs413: a POSTed RPC body past maxRPCBody is answered
// 413, as an over-cap POST /posts is; a malformed one stays 400.
func TestRPCBodyOverCapIs413(t *testing.T) {
	n, err := NewNode(&memSvc{}, Config{NodeID: "n1", Role: RoleLeader})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	h := n.Handler()
	for _, path := range []string{"/cluster/heartbeat", "/cluster/vote", "/cluster/reconfigure"} {
		for _, c := range []struct {
			body io.Reader
			want int
		}{
			{io.MultiReader(strings.NewReader(`{"leader":"`), io.LimitReader(zeros{}, maxRPCBody)), http.StatusRequestEntityTooLarge},
			{strings.NewReader(`{"term":`), http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, c.body))
			if rec.Code != c.want {
				t.Errorf("%s: status %d, want %d (%s)", path, rec.Code, c.want, rec.Body.Bytes())
			}
		}
	}
}

// zeros reads as an endless run of '0'.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// appendLoopback is one leader→follower append RPC as production sends
// it: the leader's httpTransport over loopback HTTP to a follower's
// Handler, in one process. The follower is a memory-only voting member
// whose timers are parked an hour out, over a service that keeps
// nothing, so what an append costs is the wire and the node's own work.
// send carries one write op continuing the follower's log and waits for
// the acknowledgement.
func appendLoopback(tb testing.TB) (send func()) {
	tb.Helper()
	f, err := NewNode(dropSvc{}, Config{
		NodeID: "f", SelfURL: "http://f", Peers: []string{"http://l", "http://x"},
		ElectionTimeout: time.Hour, HeartbeatInterval: time.Hour, PullInterval: time.Hour,
		SnapshotEvery: 1 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	tb.Cleanup(func() {
		srv.Close()
		f.Kill()
	})
	tr := &httpTransport{hc: &http.Client{}}
	tb.Cleanup(tr.hc.CloseIdleConnections)
	op := Op{Term: 1, Kind: opWrite, Site: string(simnet.DCWest), ID: "p-1", Author: "alice",
		Body: "a post body of ordinary length, nothing to escape"}
	ops := make([]Op, 1)
	acked := make(chan uint64, 1)
	done := func(resp HeartbeatResponse, err error) {
		if err != nil {
			tb.Error(err)
		}
		acked <- resp.LastIndex
	}
	var head uint64
	return func() {
		ops[0] = op
		ops[0].Index = head + 1
		tr.Heartbeat(srv.URL, HeartbeatRequest{
			Term: 1, Leader: "l", LeaderURL: "http://l", LastIndex: head + 1, Commit: head,
			Prev: head, PrevTerm: min(head, 1), Ops: ops, Round: head + 1,
		}, done)
		if got := <-acked; got != head+1 {
			tb.Fatalf("append of %d acknowledged at %d", head+1, got)
		}
		head++
	}
}

// appendRPCAllocs is what one append RPC carrying one op allocates,
// leader and follower together, in one process on loopback: 128 while
// both ends went through encoding/json, http.NewRequest and a
// Stop + AfterFunc of the follower's election timer. What is left is
// net/http's, but for the request's deadline context (≈ 6 objects with
// what net/http derives from it), the go statement, the body's bytes,
// reader and GetBody, and one string per decoded message.
const appendRPCAllocs = 93

// TestAppendRPCAllocs pins what one append RPC allocates.
func TestAppendRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	send := appendLoopback(t)
	for i := 0; i < 2000; i++ {
		send()
	}
	got := testing.AllocsPerRun(2000, send)
	if got > appendRPCAllocs {
		t.Fatalf("one append RPC allocates %v objects, pinned at %d", got, appendRPCAllocs)
	}
	t.Logf("one append RPC allocates %v objects", got)
}

// BenchmarkAppendRPC is one loopback append RPC carrying one op.
func BenchmarkAppendRPC(b *testing.B) {
	send := appendLoopback(b)
	for i := 0; i < 1000; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
