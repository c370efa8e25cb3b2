package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"conprobe/internal/wal"
)

// appendProtocol names the append stream: GET /cluster/append with
// Connection: Upgrade and Upgrade: appendProtocol, answered 101, after
// which each side writes frames — a WAL frame (length, CRC32) of exactly
// the body POST /cluster/heartbeat carries — answered in order. The
// checksum guards the op records a follower journals as they arrive.
const appendProtocol = "consvc-append/2"

var upgradeHeader = http.Header{"Connection": {"Upgrade"}, "Upgrade": {appendProtocol}} // read only

// streamQueue bounds a stream's unanswered calls: a follower stalled for
// rpcTimeout collects a tick per HeartbeatInterval (50 at the defaults)
// and one append. A call past it fails as a lost message would.
const streamQueue = 128

var (
	errUpgradeRefused  = errors.New("cluster: append stream upgrade refused")
	errTransportClosed = errors.New("cluster: transport closed")
)

// appendStream is one leader→follower stream: run opens it and writes
// frames, read hands each reply to the oldest unanswered call. A broken
// stream is dropped; the next call opens another.
type appendStream struct {
	t        *httpTransport
	peer     string
	queue    chan HeartbeatRequest // closed by fail
	watchdog *time.Timer           // fires at the oldest call's deadline

	mu      sync.Mutex
	pending []streamCall       // queued or written, unanswered, oldest first
	conn    io.ReadWriteCloser // nil until the upgrade succeeds
	err     error              // why the stream broke
}

type streamCall struct {
	done     func(HeartbeatResponse, error)
	deadline time.Time
}

// stream returns peer's stream, opening one when there is none, or
// errUpgradeRefused while peer's last refusal stands.
func (t *httpTransport) stream(peer string) (*appendStream, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.streams[peer]
	switch {
	case s != nil:
		return s, nil
	case t.closed:
		return nil, errTransportClosed
	case time.Now().Before(t.refused[peer]):
		return nil, errUpgradeRefused
	}
	s = &appendStream{t: t, peer: peer, queue: make(chan HeartbeatRequest, streamQueue)}
	s.watchdog = time.AfterFunc(t.timeout, s.expire)
	t.streams[peer] = s
	go s.run()
	return s, nil
}

// close breaks every stream; later calls fail at once. Nil-safe.
func (t *httpTransport) close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.closed = true
	streams := t.streams
	t.streams = make(map[string]*appendStream)
	t.mu.Unlock()
	for _, s := range streams {
		s.fail(errTransportClosed)
	}
}

// upgrade asks peer for an append stream and returns its connection.
func (t *httpTransport) upgrade(peer string) (io.ReadWriteCloser, error) {
	ctx, cancel := t.rpcContext()
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/cluster/append", nil)
	if err != nil {
		return nil, err
	}
	hreq.Header = upgradeHeader
	r, err := t.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if rwc, ok := r.Body.(io.ReadWriteCloser); ok && r.StatusCode == http.StatusSwitchingProtocols {
		return rwc, nil
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 4<<10)) // so the POSTs can reuse the connection
	r.Body.Close()
	return nil, errUpgradeRefused
}

// send queues req behind the calls already on the stream, without
// blocking; on an error done is the caller's to fire.
func (s *appendStream) send(req HeartbeatRequest, done func(HeartbeatResponse, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	select {
	case s.queue <- req:
	default:
		return errors.New("cluster: append stream queue full")
	}
	s.pending = append(s.pending, streamCall{done, time.Now().Add(s.t.timeout)})
	if len(s.pending) == 1 {
		s.watchdog.Reset(s.t.timeout)
	}
	return nil
}

// run opens the stream, starts its reader and writes each queued request
// as one frame.
func (s *appendStream) run() {
	conn, err := s.t.upgrade(s.peer)
	if err != nil {
		s.fail(err)
		return
	}
	s.mu.Lock()
	if s.err != nil { // overdue or closed during the upgrade
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conn = conn
	s.t.streamsOpen.Add(1)
	s.mu.Unlock()
	go s.read(bufio.NewReader(conn))
	var body, frame []byte
	for req := range s.queue {
		body = appendHeartbeatRequest(body[:0], &req)
		frame = wal.AppendFrame(frame[:0], body)
		if _, err = conn.Write(frame); err != nil {
			s.fail(err)
			return
		}
	}
}

// read hands each reply to the oldest unanswered call, on this goroutine.
func (s *appendStream) read(r *bufio.Reader) {
	var body []byte
	for {
		var resp HeartbeatResponse
		var err error
		if body, err = wal.ReadFrame(r, body, maxRPCBody); err == nil {
			err = decodeHeartbeatResponse(body, &resp)
		}
		s.mu.Lock()
		if err == nil && len(s.pending) == 0 {
			err = errors.New("reply with no call outstanding")
		}
		if err != nil {
			s.mu.Unlock()
			s.fail(err)
			return
		}
		c := s.pending[0]
		s.pending = append(s.pending[:0], s.pending[1:]...)
		s.mu.Unlock()
		c.done(resp, nil)
	}
}

// expire breaks the stream when its oldest call is overdue, and otherwise
// re-arms for that call's deadline.
func (s *appendStream) expire() {
	s.mu.Lock()
	overdue := len(s.pending) > 0 && !time.Now().Before(s.pending[0].deadline)
	if len(s.pending) > 0 && !overdue {
		s.watchdog.Reset(time.Until(s.pending[0].deadline))
	}
	s.mu.Unlock()
	if overdue {
		s.fail(errors.New("reply overdue"))
	}
}

// fail breaks the stream once and fails its calls on this goroutine — or,
// the upgrade refused and so nothing written, sends them by POST.
func (s *appendStream) fail(err error) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = err
	close(s.queue)
	s.watchdog.Stop()
	calls, conn := s.pending, s.conn
	s.pending = nil
	if conn != nil {
		// Counted closed before a call can see s.err and fail.
		s.t.streamsOpen.Add(-1)
	}
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	refused := errors.Is(err, errUpgradeRefused)
	s.t.mu.Lock()
	delete(s.t.streams, s.peer) // s, or gone with close
	if refused {
		s.t.refused[s.peer] = time.Now().Add(s.t.timeout)
	}
	s.t.mu.Unlock()
	err = fmt.Errorf("cluster: append stream to %s: %w", s.peer, err)
	for _, c := range calls {
		if refused {
			s.t.Heartbeat(s.peer, <-s.queue, c.done) // by POST: the refusal stands
		} else {
			c.done(HeartbeatResponse{}, err)
		}
	}
}

// serveAppend takes an append stream over from net/http and answers its
// frames in order until a frame over maxRPCBody (a 413 by POST) or failing
// its checksum breaks it, or the node stops. A connection it cannot take
// over is answered 501: the leader then POSTs.
func (n *Node) serveAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), appendProtocol) {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "expected an Upgrade: " + appendProtocol + " GET"})
		return
	}
	conn, rw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"error": err.Error()})
		return
	}
	defer conn.Close()
	// The server's deadlines were set for one request; the stream lasts as
	// long as the leader keeps it.
	if conn.SetDeadline(time.Time{}) != nil || !n.trackStream(conn, true) {
		return
	}
	defer n.trackStream(conn, false)
	out := []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + appendProtocol + "\r\n\r\n")
	var in, body []byte
	for { // answer, then read the next frame
		var req HeartbeatRequest
		if _, err = conn.Write(out); err != nil {
			return
		}
		// The ops' records alias in until HandleHeartbeat has kept them.
		if in, err = wal.ReadFrame(rw.Reader, in, maxRPCBody); err != nil || decodeHeartbeatRequest(in, &req) != nil {
			return
		}
		resp := n.HandleHeartbeat(req)
		body = appendHeartbeatResponse(body[:0], &resp)
		out = wal.AppendFrame(out[:0], body)
	}
}

// trackStream registers an open inbound stream for Kill and Close to break
// as they stop the node (false if it has stopped), or forgets a finished
// one. A reply computed after the stop then finds it closed.
func (n *Node) trackStream(c net.Conn, open bool) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !open || n.closed {
		delete(n.inbound, c)
		return false
	}
	n.inbound[c] = struct{}{}
	return true
}
