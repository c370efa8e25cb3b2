package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/wal"
)

// onceTransport is the production transport with a check on every
// append: its done must fire exactly once.
type onceTransport struct {
	*httpTransport
	t    *testing.T
	sent atomic.Int64 // appends made
	open atomic.Int64 // appends whose done has not fired
}

func (o *onceTransport) Heartbeat(peer string, req HeartbeatRequest, done func(HeartbeatResponse, error)) {
	var fired atomic.Bool
	o.sent.Add(1)
	o.open.Add(1)
	o.httpTransport.Heartbeat(peer, req, func(resp HeartbeatResponse, err error) {
		if fired.Swap(true) {
			o.t.Errorf("done fired twice for an append to %s", peer)
			return
		}
		o.open.Add(-1)
		done(resp, err)
	})
}

// waitSent waits until n appends have been made.
func (o *onceTransport) waitSent(n int64) {
	o.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); o.sent.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			o.t.Fatalf("%d appends made, want %d", o.sent.Load(), n)
		}
	}
}

// settle waits until every append's done has fired and l has no append
// outstanding to peer.
func (o *onceTransport) settle(l *Node, peer string, within time.Duration) {
	o.t.Helper()
	for deadline := time.Now().Add(within); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		f := l.followers[peer]
		inflight := f != nil && f.inflight != 0
		l.mu.Unlock()
		if open := o.open.Load(); !inflight && open == 0 {
			return
		} else if time.Now().After(deadline) {
			o.t.Fatalf("after %v: %d appends unanswered, one outstanding to %s: %v", within, open, peer, inflight)
		}
	}
}

// parked keeps a node's timers an hour out: only what a test does moves
// it, but for a leader's first tick.
func parked(cfg Config) Config {
	cfg.ElectionTimeout, cfg.HeartbeatInterval, cfg.PullInterval = time.Hour, time.Hour, time.Hour
	return cfg
}

// serveNode boots a voting member of the configuration {self, peers...}
// behind its own loopback server, the handler passed through wrap.
func serveNode(t *testing.T, id string, svc service.Service, wrap func(http.Handler) http.Handler, peers ...string) (*Node, *httptest.Server) {
	t.Helper()
	h := &lateHandler{}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	n, err := NewNode(svc, parked(Config{NodeID: id, SelfURL: srv.URL, Peers: peers}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Kill)
	h.set(wrap(n.Handler()))
	return n, srv
}

func plain(h http.Handler) http.Handler { return h }

// streamLeader boots a leader of {l, a, bad}: a is a live follower, so
// writes commit without bad. The leader's first tick carries its barrier
// to both. A zero timeout keeps rpcTimeout.
func streamLeader(t *testing.T, bad string, timeout time.Duration) (*Node, *onceTransport) {
	t.Helper()
	const self = "http://l"
	_, srvA := serveNode(t, "a", &memSvc{}, plain, self, bad)
	tr := &onceTransport{httpTransport: newHTTPTransport(nil), t: t}
	if timeout > 0 {
		tr.timeout = timeout
	}
	l, err := NewNode(&memSvc{}, parked(Config{
		NodeID: "l", Role: RoleLeader, SelfURL: self, Peers: []string{srvA.URL, bad}, Transport: tr,
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Kill()
		tr.close()
	})
	return l, tr
}

// gateSvc holds every write until gate closes, reporting on entered that
// one is waiting.
type gateSvc struct {
	memSvc
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateSvc) Write(from simnet.Site, p service.Post) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.memSvc.Write(from, p)
}

func propose(t *testing.T, l *Node, id string) {
	t.Helper()
	if _, err := l.ProposeWrite(simnet.DCWest, service.Post{ID: id, Author: "a1", Body: "x"}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendDoneFiresOnce: whatever becomes of an append — its follower
// killed with frames in flight, a peer that never answers, a refused
// upgrade, the transport closed under queued calls — its done fires
// exactly once and the leader's outstanding append to that member clears.
func TestAppendDoneFiresOnce(t *testing.T) {
	t.Run("follower killed with frames in flight", func(t *testing.T) {
		svc := &gateSvc{entered: make(chan struct{}, 1), gate: make(chan struct{})}
		b, srvB := serveNode(t, "b", svc, plain, "http://l", "http://a")
		l, tr := streamLeader(t, srvB.URL, 0)
		propose(t, l, "w1")
		// Once the leader has folded b's ack of w1, its next tick names
		// w1's position, so b may apply w1 when the tick brings the commit.
		ackedByB := func() bool {
			l.mu.Lock()
			defer l.mu.Unlock()
			f := l.followers[srvB.URL]
			return f != nil && f.match == l.lastIndex && l.commitIndex == l.lastIndex
		}
		for deadline := time.Now().Add(10 * time.Second); !ackedByB(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("w1 never committed with b's ack")
			}
		}
		l.heartbeatTick()
		select {
		case <-svc.entered: // b applies w1 under its lock
		case <-time.After(10 * time.Second):
			t.Fatal("w1 never reached the follower")
		}
		l.heartbeatTick()
		l.heartbeatTick()
		if open := tr.open.Load(); open < 3 {
			t.Fatalf("%d appends in flight to the stalled follower, want its append and two ticks", open)
		}
		srvB.Close()
		killed := make(chan struct{})
		go func() {
			b.Kill()
			close(killed)
		}()
		close(svc.gate)
		<-killed
		tr.settle(l, srvB.URL, 5*time.Second)
	})
	t.Run("peer never answers", func(t *testing.T) {
		mute := muteStreamServer(t)
		l, tr := streamLeader(t, mute, 100*time.Millisecond)
		tr.waitSent(2) // the first tick, to both members
		tr.settle(l, mute, 2*time.Second)
		l.mu.Lock()
		f := *l.followers[mute]
		l.mu.Unlock()
		if !f.paused || f.match != 0 {
			t.Fatalf("the mute peer's record after its append failed: %+v", f)
		}
	})
	t.Run("upgrade refused", func(t *testing.T) {
		b, srv := serveNode(t, "b", &memSvc{}, noHijack, "http://l", "http://a")
		l, tr := streamLeader(t, srv.URL, 0)
		propose(t, l, "w1")
		for deadline := time.Now().Add(10 * time.Second); b.LastIndex() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("w1 never reached the follower")
			}
		}
		tr.settle(l, srv.URL, 5*time.Second)
		if tr.fallbacks.Value() == 0 || tr.streamsOpen.Value() != 1 {
			t.Fatalf("%d fallbacks, %v streams open: the refused follower went by stream", tr.fallbacks.Value(), tr.streamsOpen.Value())
		}
	})
	t.Run("transport closed with calls queued", func(t *testing.T) {
		mute := muteStreamServer(t)
		l, tr := streamLeader(t, mute, 0)
		tr.waitSent(2)
		l.heartbeatTick()
		l.heartbeatTick()
		for deadline := time.Now().Add(5 * time.Second); tr.open.Load() < 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d appends to the mute peer outstanding, want 3", tr.open.Load())
			}
		}
		tr.close()
		tr.settle(l, mute, time.Second) // well inside the 5s reply deadline
	})
}

// TestStreamOutlivesServerTimeouts: a stream served by an http.Server
// whose read and write timeouts are 200 ms carries appends for over a
// second on its one connection — the follower cleared the deadlines the
// server set for the upgrade request.
func TestStreamOutlivesServerTimeouts(t *testing.T) {
	f := pushFollower(t, &pullCapture{}, nil)
	var conns atomic.Int32
	srv := httptest.NewUnstartedServer(f.Handler())
	srv.Config.ReadTimeout, srv.Config.WriteTimeout = 200*time.Millisecond, 200*time.Millisecond
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	tr := newHTTPTransport(nil)
	defer tr.close()
	begin := time.Now()
	for head := uint64(0); time.Since(begin) < 1200*time.Millisecond; head++ {
		resp, err := heartbeatVia(tr, srv.URL, appendReq(1, head, min(head, 1), writeOpsAt(head+1, 1, 1), head+1, head))
		if err != nil || resp.LastIndex != head+1 {
			t.Fatalf("append %d after %v: head %d, %v", head+1, time.Since(begin), resp.LastIndex, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections for one stream", n)
	}
}

// TestStreamMatchesRepliesInOrder: calls sent back to back share the
// stream, and each gets its own reply — the follower's echo of its round.
func TestStreamMatchesRepliesInOrder(t *testing.T) {
	f := pushFollower(t, &pullCapture{}, nil)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	tr := newHTTPTransport(nil)
	defer tr.close()
	const calls = 32
	rounds := make(chan [2]uint64, calls)
	for i := uint64(1); i <= calls; i++ {
		tr.Heartbeat(srv.URL, HeartbeatRequest{Term: 1, Leader: "l", LeaderURL: "http://l", Round: i}, func(resp HeartbeatResponse, err error) {
			if err != nil {
				t.Error(err)
			}
			rounds <- [2]uint64{i, resp.Round}
		})
	}
	for i := 0; i < calls; i++ {
		if r := <-rounds; r[0] != r[1] {
			t.Fatalf("the call of round %d got the reply of round %d", r[0], r[1])
		}
	}
	if got := tr.streamsOpen.Value(); got != 1 {
		t.Fatalf("%v streams open, want 1", got)
	}
}

// TestKilledFollowerAnswersNoFrame: once its server is closed and the
// node killed, a follower answers nothing on the stream it was serving —
// every call sent afterwards fails — and the stream is counted closed.
func TestKilledFollowerAnswersNoFrame(t *testing.T) {
	f := pushFollower(t, &pullCapture{}, nil)
	srv := httptest.NewServer(f.Handler())
	tr := newHTTPTransport(nil)
	defer tr.close()
	if _, err := heartbeatVia(tr, srv.URL, appendReq(1, 0, 0, writeOpsAt(1, 1, 1), 1, 0)); err != nil {
		t.Fatal(err)
	}
	if got := tr.streamsOpen.Value(); got != 1 {
		t.Fatalf("%v streams open, want 1", got)
	}
	srv.Close()
	f.Kill()
	errs := make(chan error, 8)
	for i := uint64(1); i <= 8; i++ {
		tr.Heartbeat(srv.URL, appendReq(1, i, 1, writeOpsAt(i+1, 1, 1), i+1, i), func(resp HeartbeatResponse, err error) {
			if err == nil {
				err = fmt.Errorf("killed follower answered with head %d", resp.LastIndex)
				t.Error(err)
			}
			errs <- err
		})
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a call to a killed follower succeeded")
		}
	}
	if got := tr.streamsOpen.Value(); got != 0 {
		t.Fatalf("%v streams open after the follower died, want 0", got)
	}
}

// TestOverCapFrameClosesStream: a frame longer than maxRPCBody breaks the
// stream unanswered and appends nothing, as a POSTed body that long is
// refused 413.
func TestOverCapFrameClosesStream(t *testing.T) {
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
	// A well-formed append, padded past the cap with whitespace JSON allows.
	body, _ := json.Marshal(appendReq(1, 0, 0, writeOpsAt(1, 1, 1), 1, 0))
	body = append(body, bytes.Repeat([]byte{' '}, maxRPCBody+1-len(body))...)
	go func() { // fails once the follower hangs up
		if _, err := conn.Write(wal.AppendFrame(nil, body)[:wal.FrameHeader]); err == nil {
			_, _ = conn.Write(body)
		}
	}()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Hanging up on unread bytes may reset the connection rather than end it.
	if n, err := io.Copy(io.Discard, br); n != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the follower answered %d bytes, then %v; want it to hang up unanswered", n, err)
	}
	if got := f.LastIndex(); got != 0 {
		t.Fatalf("an over-cap frame appended through %d", got)
	}
}

// TestFlippedFrameIsRefused records one request frame and feeds it to a
// follower's append stream with each of its bytes flipped in turn: the
// follower journals the op records a frame carries as they arrived, so
// every flip — in the length, the checksum or the body — must break the
// stream unanswered and append nothing. The frame as recorded appends.
func TestFlippedFrameIsRefused(t *testing.T) {
	f := pushFollower(t, &pullCapture{}, nil)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	op := recorded(Op{Index: 1, Term: 1, Kind: opWrite, Site: string(simnet.DCWest), ID: "p-1", Author: "alice",
		Body: "a body no flipped byte may reach the journal"})
	req := appendReq(1, 0, 0, []Op{op}, 1, 0)
	good := wal.AppendFrame(nil, appendHeartbeatRequest(nil, &req))
	// send writes frame on a fresh stream, ends its side of the
	// connection and returns how many bytes the follower answered.
	send := func(frame []byte) int64 {
		t.Helper()
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
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		_ = conn.(*net.TCPConn).CloseWrite() // a length flipped upward then reads to the end
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := io.Copy(io.Discard, br)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("the follower neither answered nor hung up")
		}
		return n
	}
	for off := range good {
		frame := bytes.Clone(good)
		frame[off] ^= 0xff
		if n := send(frame); n != 0 || f.LastIndex() != 0 {
			t.Fatalf("byte %d of %d flipped: the follower answered %d bytes and holds %d ops, want a hang-up and none",
				off, len(good), n, f.LastIndex())
		}
	}
	if n := send(good); n == 0 || f.LastIndex() != 1 {
		t.Fatalf("the recorded frame: answered %d bytes, holds %d ops; want an answer and the op", n, f.LastIndex())
	}
}
