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
	"conprobe/internal/wal"
)

// heartbeatPair builds a request and a response from fuzz arguments: up
// to three write ops of the given fields (nops%4), then a configuration
// op when config is set; nops&4 sets the snapshot flag.
func heartbeatPair(term, last, commit, prev, prevTerm, round uint64, leader, url, kind, site, id, author, body, dep string, nops uint8, config bool) (HeartbeatRequest, HeartbeatResponse) {
	req := HeartbeatRequest{
		Term: term, Leader: leader, LeaderURL: url, LastIndex: last, Commit: commit,
		Prev: prev, PrevTerm: prevTerm, Round: round, Snapshot: nops&4 != 0,
	}
	for i := uint64(0); i < uint64(nops%4); i++ {
		req.Ops = append(req.Ops, recorded(Op{Index: prev + i + 1, Term: prevTerm + i, Kind: kind, Site: site, ID: id, Author: author, Body: body, DependsOn: dep}))
	}
	if config {
		req.Ops = append(req.Ops, recorded(Op{Index: last, Kind: opConfig, Config: &Membership{New: []Member{{ID: id, URL: url}}}}))
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
	f.Add(uint64(4), uint64(12), uint64(11), uint64(3), uint64(1), uint64(7), "n1", "http://n1", "", "", "", "", "", "", uint8(4), false)
	f.Fuzz(func(t *testing.T, term, last, commit, prev, prevTerm, round uint64, leader, url, kind, site, id, author, body, dep string, nops uint8, config bool) {
		req, resp := heartbeatPair(term, last, commit, prev, prevTerm, round, leader, url, kind, site, id, author, body, dep, nops, config)

		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendHeartbeatRequest([]byte("x"), &req); !bytes.Equal(got[1:], want) {
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
			if scanHeartbeatRequest(&sc, want, new(HeartbeatRequest)); !sc.Done() {
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
// json.Unmarshal does: the same value, or the same error. encoding/json
// hands each op to Op.UnmarshalJSON, so a request's ops must keep as
// their records the bytes of b they were read from on the fast path too;
// and their exported fields must be what encoding/json reads with no Op
// method anywhere, into plainOps.
func checkHeartbeatDecoders(t *testing.T, b []byte) {
	t.Helper()
	var req, wantReq HeartbeatRequest
	err := decodeHeartbeatRequest(b, &req)
	sameDecode(t, b, err, json.Unmarshal(b, &wantReq), req, wantReq)
	var plain struct {
		HeartbeatRequest
		Ops []plainOp `json:"ops,omitempty"`
	}
	if perr := json.Unmarshal(b, &plain); (perr == nil) != (err == nil) {
		t.Fatalf("%q: error %v, encoding/json's own reading %v", b, err, perr)
	} else if err == nil {
		if plain.Ops != nil {
			plain.HeartbeatRequest.Ops = make([]Op, len(plain.Ops))
		}
		for i, op := range plain.Ops {
			plain.HeartbeatRequest.Ops[i] = Op(op)
		}
		for i := range req.Ops {
			req.Ops[i].rec = nil
		}
		if !reflect.DeepEqual(req, plain.HeartbeatRequest) {
			t.Fatalf("%q:\n got %+v\nencoding/json's own reading %+v", b, req, plain.HeartbeatRequest)
		}
	}
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

// checkNothingKept decodes a copy of b in place, keeps what a node keeps
// of it — a request's leader names (HandleHeartbeat) and each op read
// back from a copy of its record (applyReplicatedLocked), a reply's URL
// and node ID (decodeReply) — and overwrites the copy: what was kept
// must still read as json.Unmarshal reads b, each op as its record reads.
// (An op decoded into twice, as json.Unmarshal decodes a repeated "ops",
// can hold a field its record lacks; a node keeps what the record says.)
func checkNothingKept(t *testing.T, b []byte) {
	t.Helper()
	keep := func(ops []Op) {
		for i := range ops {
			var op Op
			if err := op.decode(bytes.Clone(ops[i].rec)); err != nil {
				t.Fatalf("%q: op %d's record %q does not read back: %v", b, i, ops[i].rec, err)
			}
			ops[i] = op
		}
	}
	buf := bytes.Clone(b)
	var req, wantReq HeartbeatRequest
	if decodeHeartbeatRequest(buf, &req) == nil {
		req.Leader, req.LeaderURL = own(req.Leader, ""), own(req.LeaderURL, "")
		keep(req.Ops)
		scribble(buf)
		err := json.Unmarshal(b, &wantReq)
		if keep(wantReq.Ops); err != nil || !reflect.DeepEqual(req, wantReq) {
			t.Fatalf("%q: kept\n %+v\nonce the buffer was overwritten; json.Unmarshal reads %+v, %v", b, req, wantReq, err)
		}
	}
	buf = bytes.Clone(b)
	var resp, wantResp HeartbeatResponse
	url, node := "", ""
	if decodeReply(buf, &resp, &url, &node) == nil {
		scribble(buf)
		if err := json.Unmarshal(b, &wantResp); err != nil || !reflect.DeepEqual(resp, wantResp) {
			t.Fatalf("%q: kept\n %+v\nonce the buffer was overwritten; json.Unmarshal reads %+v, %v", b, resp, wantResp, err)
		}
	}
}

// FuzzDecodeHeartbeat feeds arbitrary bytes to both append RPC decoders:
// each must return json.Unmarshal's value, and fail exactly when it
// fails, with its error, and what a node keeps of what they read must
// not change when the buffer they read in place is overwritten. The seeds are the shapes the fast path must
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
		`{"ops":[`, `{"term":1,"ops":[{"i":1`, // cut inside an op: the scan steps past the end of the body
		`{"term":4,"leader":"n1","leader_url":"http://n1","last_index":12,"commit":11,"prev":3,"prev_term":1,"round":7,"snapshot":true}`,
		`{"term":1,"snapshot":false}`, `{"term":1,"snapshot":tru}`, `{"term":1,"snapshot":true`, `{"snapshot":true,"term":1}`,
		`{"term":1,"snapshot":1}`, `{"term":1,"snapshot":null}`, `{"term":1,"snapshot":truex}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkHeartbeatDecoders(t, b)
		checkNothingKept(t, b)
	})
}

// captureRequests runs send against a loopback listener that accepts
// one connection per answer, in turn, reads one request from each and
// replies with the answer's raw bytes; it returns every request's bytes
// as they arrived.
func captureRequests(t *testing.T, answers []string, send func(base string)) [][]byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan [][]byte, 1)
	go func() {
		var raws [][]byte
		defer func() { got <- raws }()
		for _, answer := range answers {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var raw bytes.Buffer
			if req, err := http.ReadRequest(bufio.NewReader(io.TeeReader(conn, &raw))); err == nil {
				_, _ = io.Copy(io.Discard, req.Body)
			}
			_, _ = io.WriteString(conn, answer)
			conn.Close()
			raws = append(raws, raw.Bytes())
		}
	}()
	send("http://" + ln.Addr().String())
	return <-got
}

// okAnswer is a follower's reply as a whole HTTP response.
func okAnswer(body string) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
}

// streamPeer accepts one append stream on a loopback listener and answers
// each frame with reply; it returns the listener's base URL and the
// request frames' bodies as they arrive.
func streamPeer(t *testing.T, reply string) (string, <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	frames := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		req, err := http.ReadRequest(br)
		if err != nil || req.URL.Path != "/cluster/append" || req.Header.Get("Upgrade") != appendProtocol || req.Header.Get("Connection") != "Upgrade" {
			t.Errorf("upgrade request %+v: %v", req, err)
			return
		}
		_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+appendProtocol+"\r\n\r\n")
		for {
			body, err := wal.ReadFrame(br, nil, maxRPCBody)
			if err != nil {
				return
			}
			frames <- body
			if _, err := conn.Write(frame(reply)); err != nil {
				return
			}
		}
	}()
	return "http://" + ln.Addr().String(), frames
}

// frame is body as an append-stream frame.
func frame[B string | []byte](body B) []byte {
	return wal.AppendFrame(nil, []byte(body))
}

// heartbeatVia sends req to peer over tr and waits for the reply.
func heartbeatVia(tr *httpTransport, peer string, req HeartbeatRequest) (HeartbeatResponse, error) {
	type result struct {
		resp HeartbeatResponse
		err  error
	}
	got := make(chan result, 1)
	tr.Heartbeat(peer, req, func(resp HeartbeatResponse, err error) { got <- result{resp, err} })
	r := <-got
	return r.resp, r.err
}

// TestAppendRPCWireUnchanged: on the append stream, a request frame's body
// is byte for byte json.Marshal's output and the follower's reply frame
// is what writeJSON wrote; a follower that refuses the stream is sent
// exactly the POST that http.NewRequest and Header.Set built, and answers
// it with what writeJSON wrote.
func TestAppendRPCWireUnchanged(t *testing.T) {
	req, _ := heartbeatPair(3, 9, 8, 8, 3, 41, "n1", "http://n1", "write", "oregon", "p-1", "alice", "caf\u00e9 <b>", "", 2, true)
	body, _ := json.Marshal(req)
	const reply = `{"term":3,"node":"f","last_index":9,"last_term":3}` + "\n"
	hc := &http.Client{}
	defer hc.CloseIdleConnections()

	// The leader's end of a stream.
	peer, frames := streamPeer(t, reply)
	tr := newHTTPTransport(nil)
	defer tr.close()
	resp, err := heartbeatVia(tr, peer, req)
	if err != nil || resp != (HeartbeatResponse{Term: 3, Node: "f", LastIndex: 9, LastTerm: 3}) {
		t.Fatalf("reply %+v, %v", resp, err)
	}
	if got := <-frames; !bytes.Equal(got, body) {
		t.Fatalf("request frame:\n%q\nwant json.Marshal's\n%q", got, body)
	}

	// The follower's end of a stream.
	f := pushFollower(t, &pullCapture{}, nil)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /cluster/append HTTP/1.1\r\nHost: f\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", appendProtocol)
	if r, err := http.ReadResponse(br, nil); err != nil || r.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade answered %+v, %v", r, err)
	}
	if _, err := conn.Write(frame(body)); err != nil {
		t.Fatal(err)
	}
	gotReply, err := wal.ReadFrame(br, nil, maxRPCBody)
	if err != nil {
		t.Fatal(err)
	}
	want := httptest.NewRecorder()
	writeJSONReflect(want, f.HandleHeartbeat(req)) // the same request again changes nothing
	if !bytes.Equal(gotReply, want.Body.Bytes()) {
		t.Fatalf("reply frame %q, was %q", gotReply, want.Body.Bytes())
	}

	// A refused upgrade, then the POST: two connections, the second's bytes
	// today's.
	raws := captureRequests(t, []string{
		"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n", okAnswer(reply), okAnswer(reply),
	}, func(base string) {
		tr := newHTTPTransport(nil)
		tr.hc = hc
		defer tr.close()
		if _, err := heartbeatVia(tr, base, req); err != nil {
			t.Error(err)
		}
		if got := tr.fallbacks.Value(); got != 1 {
			t.Errorf("%d fallbacks counted, want 1", got)
		}
		hreq, _ := http.NewRequest(http.MethodPost, base+"/cluster/heartbeat", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		if resp, err := hc.Do(hreq); err == nil {
			resp.Body.Close()
		}
	})
	if len(raws) != 3 || !bytes.HasPrefix(raws[0], []byte("GET /cluster/append HTTP/1.1\r\n")) {
		t.Fatalf("captured %q, want the upgrade first", raws)
	}
	if len(raws[1]) == 0 || !bytes.Equal(raws[1], raws[2]) {
		t.Fatalf("append RPC on the wire:\n%q\nwas\n%q", raws[1], raws[2])
	}

	got := httptest.NewRecorder()
	f.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", bytes.NewReader(body)))
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
// Handler, in one process — on the append stream, or by POST when refuse
// serves the follower through a ResponseWriter that cannot be hijacked,
// as a counting middleware's cannot. The follower is a memory-only voting
// member whose timers are parked an hour out, over a service that keeps
// nothing, so what an append costs is the wire and the node's own work.
// send carries one write op continuing the follower's log and waits for
// the acknowledgement.
func appendLoopback(tb testing.TB, refuse bool) (send func()) {
	tb.Helper()
	f, err := NewNode(dropSvc{}, Config{
		NodeID: "f", SelfURL: "http://f", Peers: []string{"http://l", "http://x"},
		ElectionTimeout: time.Hour, HeartbeatInterval: time.Hour, PullInterval: time.Hour,
		SnapshotEvery: 1 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := f.Handler()
	if refuse {
		h = noHijack(h)
	}
	srv := httptest.NewServer(h)
	tr := newHTTPTransport(nil)
	tb.Cleanup(func() {
		tr.close()
		tr.hc.CloseIdleConnections()
		srv.Close()
		f.Kill()
	})
	op := Op{Term: 1, Kind: opWrite, Site: string(simnet.DCWest), ID: "p-1", Author: "alice",
		Body: "a post body of ordinary length, nothing to escape"}
	ops := make([]Op, 1)
	var rec []byte
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
		rec = appendOp(rec[:0], &ops[0]) // the follower copies what it keeps
		ops[0].rec = rec
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

// noHijack serves h, but the stream upgrade goes through a ResponseWriter
// that hides every optional interface of net/http's own, Hijacker
// included; wrapping only that request keeps the wrapper's object out of
// what a POST costs.
func noHijack(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/append" {
			w = struct{ http.ResponseWriter }{w}
		}
		h.ServeHTTP(w, r)
	})
}

// What one append RPC carrying one op allocates, leader and follower
// together, in one process on loopback. On the stream it is nothing per
// op: both ends read their frames in place, the follower reuses its op
// slice and keeps the op's one copy in its record block (one allocation
// per 32 KiB), and its tail grows by append's steps. It was 3 while each
// end copied each message into a string and the follower made a new op
// slice per frame. By POST it was 128 while both ends went through
// encoding/json, http.NewRequest and a Stop + AfterFunc of the
// follower's election timer; what is left is net/http's, but for the
// request's deadline context (≈ 6 objects with what net/http derives
// from it), the go statement, the body's bytes, reader and GetBody, the
// follower's op slice, and a clone each of the reply's URL (the follower
// here names itself otherwise than by its address) and node ID.
const (
	appendStreamAllocs = 0
	appendPostAllocs   = 93
)

// TestAppendRPCAllocs pins what one append RPC allocates, on the stream
// and by POST.
func TestAppendRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name   string
		refuse bool
		pin    float64
	}{{"stream", false, appendStreamAllocs}, {"post", true, appendPostAllocs}} {
		t.Run(c.name, func(t *testing.T) {
			send := appendLoopback(t, c.refuse)
			for i := 0; i < 2000; i++ {
				send()
			}
			got := testing.AllocsPerRun(2000, send)
			if got > c.pin {
				t.Fatalf("one append RPC allocates %v objects, pinned at %v", got, c.pin)
			}
			t.Logf("one append RPC allocates %v objects", got)
		})
	}
}

// BenchmarkAppendRPC is one loopback append RPC carrying one op, on the
// append stream.
func BenchmarkAppendRPC(b *testing.B) {
	send := appendLoopback(b, false)
	for i := 0; i < 1000; i++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
