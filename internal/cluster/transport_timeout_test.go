package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRPCDeadlinePinnedOnEveryMethod pins the per-RPC deadline on all
// four transport methods: a peer that accepts the connection and then
// hangs must fail the call within the transport's RPC timeout (plus
// scheduling slack), not the client-wide timeout and not never. Pull
// and snapshot transfers run under in-flight guards — one at a time —
// so a single hung peer would otherwise pin replication for the
// guard's lifetime. The append RPC has two ways to hang: a peer that
// never answers the stream upgrade, and one that takes the stream and
// reads its frames but never answers one.
func TestRPCDeadlinePinnedOnEveryMethod(t *testing.T) {
	hang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang // hold every request open until the test ends
	}))
	defer srv.Close()
	mute := muteStreamServer(t)
	// Released before srv.Close (defers are LIFO): Close waits for the
	// hung handlers, which return only once hang closes.
	defer close(hang)

	const timeout = 100 * time.Millisecond
	tr := newHTTPTransport(nil)
	tr.hc, tr.timeout = srv.Client(), timeout
	defer tr.close()

	calls := []struct {
		name string
		call func(done func(error))
	}{
		{"RequestVote", func(done func(error)) {
			tr.RequestVote(srv.URL, VoteRequest{Term: 1, Candidate: "a"}, func(_ VoteResponse, err error) { done(err) })
		}},
		{"Heartbeat", func(done func(error)) {
			tr.Heartbeat(srv.URL, HeartbeatRequest{Term: 1, Leader: "a"}, func(_ HeartbeatResponse, err error) { done(err) })
		}},
		{"Heartbeat/stream", func(done func(error)) {
			tr.Heartbeat(mute, HeartbeatRequest{Term: 1, Leader: "a"}, func(_ HeartbeatResponse, err error) { done(err) })
		}},
		{"Pull", func(done func(error)) {
			tr.Pull(srv.URL, PullRequest{Term: 1, Node: "a"}, func(_ PullResponse, err error) { done(err) })
		}},
		{"FetchSnapshotChunk", func(done func(error)) {
			tr.FetchSnapshotChunk(srv.URL, SnapshotChunkRequest{}, func(_ SnapshotChunkResponse, err error) { done(err) })
		}},
	}
	for _, c := range calls {
		c := c
		t.Run(c.name, func(t *testing.T) {
			errc := make(chan error, 1)
			begin := time.Now()
			c.call(func(err error) { errc <- err })
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("hung peer produced a successful response")
				}
				if elapsed := time.Since(begin); elapsed < timeout/2 {
					t.Fatalf("failed after %v, before the deadline could have fired — wrong error: %v", elapsed, err)
				}
			case <-time.After(10 * timeout):
				t.Fatalf("call still in flight %v after a %v deadline", 10*timeout, timeout)
			}
		})
	}
}

// muteStreamServer serves append streams that read every frame and
// answer none, and returns its URL.
func muteStreamServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+appendProtocol+"\r\n\r\n"); err == nil {
			_, _ = io.Copy(io.Discard, conn)
		}
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRPCDeadlineDefaultsWhenUnset: a transport built without a test
// override still bounds the call (the 5s rpcTimeout rather than hanging
// forever). Verified structurally: rpcContext must return a context
// with a deadline.
func TestRPCDeadlineDefaultsWhenUnset(t *testing.T) {
	tr := newHTTPTransport(nil)
	ctx, cancel := tr.rpcContext()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Fatal("rpcContext with zero timeout returned a context with no deadline")
	}
}
