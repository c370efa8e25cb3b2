package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/wal"
)

// scribble overwrites every byte of b up to its capacity.
func scribble(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = '#'
	}
}

// bodyReader serves body and remembers every buffer it was asked to read
// into, so that a test can scribble over what the handler read the body into.
type bodyReader struct {
	r    io.Reader
	bufs [][]byte
}

func (b *bodyReader) Read(p []byte) (int, error) {
	b.bufs = append(b.bufs, p)
	return b.r.Read(p)
}

// TestFollowerKeepsNothingOfTheFrame appends frames of 1 and of 3 ops to a
// follower, through the stream's decode path and through the POST
// fallback, and overwrites every byte of each frame and of the buffer it
// was read into once it is answered. Nothing the follower holds may
// change: its tail, its applied state, the leader it names, and the
// oplog it rewrites as it closes.
func TestFollowerKeepsNothingOfTheFrame(t *testing.T) {
	ops := make([]Op, 4)
	for i := range ops {
		ops[i] = recorded(Op{Index: uint64(i + 1), Term: 1, Kind: opWrite, Site: string(simnet.DCWest),
			ID: fmt.Sprintf("p-%d", i+1), Author: "alice", Body: fmt.Sprintf("body %d, of ordinary length", i+1)})
	}
	frames := []HeartbeatRequest{
		{Term: 1, Leader: "l", LeaderURL: "http://l", LastIndex: 1, Commit: 1, Ops: ops[:1], Round: 1},
		{Term: 1, Leader: "l", LeaderURL: "http://l", LastIndex: 4, Commit: 4, Prev: 1, PrevTerm: 1, Ops: ops[1:], Round: 2},
	}
	for _, c := range []struct {
		name    string
		deliver func(t *testing.T, f *Node, body []byte)
	}{
		{"stream", func() func(*testing.T, *Node, []byte) {
			var in []byte // reused from frame to frame, as serveAppend reuses it
			var spare []Op
			return func(t *testing.T, f *Node, body []byte) {
				frame := wal.AppendFrame(nil, body)
				var err error
				if in, err = wal.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), in, maxRPCBody); err != nil {
					t.Fatal(err)
				}
				if _, spare, err = f.answerHeartbeat(in, spare); err != nil {
					t.Fatal(err)
				}
				scribble(frame)
				scribble(in)
			}
		}()},
		{"post", func(t *testing.T, f *Node, body []byte) {
			r := &bodyReader{r: bytes.NewReader(body)}
			w := httptest.NewRecorder()
			f.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/cluster/heartbeat", r))
			if w.Code != http.StatusOK {
				t.Fatalf("POST answered %d: %s", w.Code, w.Body)
			}
			for _, b := range r.bufs {
				scribble(b)
			}
			scribble(body)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			f, err := NewNode(&memSvc{}, parked(Config{
				NodeID: "f", SelfURL: "http://f", Peers: []string{"http://l", "http://x"},
				DataDir: dir, NoSync: true, SnapshotEvery: 1 << 20,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Kill()
			for i := range frames {
				c.deliver(t, f, appendHeartbeatRequest(nil, &frames[i]))
			}
			if got := f.TailOps(); !reflect.DeepEqual(got, ops) {
				t.Fatalf("tail after the frames were overwritten:\n got %+v\nwant %+v", got, ops)
			}
			var want []service.Post
			for _, op := range ops {
				want = append(want, service.Post{ID: op.ID, Author: op.Author, Body: op.Body})
			}
			if got, err := f.Read(simnet.DCWest, "r"); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("applied state after the frames were overwritten: %+v, %v\nwant %+v", got, err, want)
			}
			if st := f.Status(); st.LeaderID != "l" || st.LeaderURL != "http://l" {
				t.Fatalf("status names leader %q at %q, want l at http://l", st.LeaderID, st.LeaderURL)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := wal.ReadFS(nil, filepath.Join(dir, "oplog.log"))
			if err != nil {
				t.Fatal(err)
			}
			snap := appendSnapshot(nil, &nodeSnapshot{LastIndex: 4, LastTerm: 1}, records(ops))
			if len(rep.Records) != 1 || !bytes.Equal(rep.Records[0], snap) {
				t.Fatalf("oplog rewritten at close as %q, want the one record %s", rep.Records, snap)
			}
		})
	}
}

// TestLeaderKeepsNothingOfTheReply: a reply a leader reads in place from a
// stream's buffer, then folds into its progress and the round it echoes,
// leaves nothing that changes when that buffer is written over.
func TestLeaderKeepsNothingOfTheReply(t *testing.T) {
	tr := &captureTransport{}
	peers := []string{"http://a", "http://b", "http://c", "http://d"}
	l, err := NewNode(&memSvc{}, parked(Config{NodeID: "l", SelfURL: "http://l", Role: RoleLeader, Peers: peers, Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Kill()
	var hb capturedHB // the first tick's request to http://a
	for _, h := range tr.waitHBs(t, len(peers)) {
		if h.peer == peers[0] && h.req.Round != 0 {
			hb = h
			break
		}
	}
	if hb.done == nil {
		t.Fatalf("the first tick sent %s no round", peers[0])
	}
	l.mu.Lock()
	reply := appendHeartbeatResponse(nil, &HeartbeatResponse{
		Term: l.currentTerm, Node: "a", URL: hb.peer, LastIndex: l.lastIndex, LastTerm: l.lastTerm, Round: hb.req.Round,
	})
	l.mu.Unlock()
	var resp HeartbeatResponse
	url, node := "", "" // a stream's first reply: both are cloned
	if err := decodeReply(reply, &resp, &url, &node); err != nil {
		t.Fatal(err)
	}
	hb.done(resp, nil)
	scribble(reply)

	l.mu.Lock()
	defer l.mu.Unlock()
	var keys []string
	for k, f := range l.followers {
		keys = append(keys, k+"="+f.id)
	}
	slices.Sort(keys)
	if want := []string{"http://a=a", "http://b=", "http://c=", "http://d="}; !slices.Equal(keys, want) {
		t.Fatalf("followers after the reply was overwritten: %q, want %q", keys, want)
	}
	r := l.rounds[hb.req.Round]
	if r == nil {
		t.Fatalf("round %d is gone: one ack of five members cannot confirm it", hb.req.Round)
	}
	keys = keys[:0]
	for k := range r.acks {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"http://a", "http://l"}; !slices.Equal(keys, want) {
		t.Fatalf("round %d's acks after the reply was overwritten: %q, want %q", hb.req.Round, keys, want)
	}
}

// TestTailRegrowsOncePerTwoCheckpoints: a node trimming its tail — as it
// opens its oplog, then at every checkpoint — gives the retained entries
// an array with room for the ops up to the checkpoint after next, so
// grow-only writes move the tail to a new array at most once per two
// checkpoints, not at every doubling.
func TestTailRegrowsOncePerTwoCheckpoints(t *testing.T) {
	const every, writes = 16, 16 * 16
	n, err := NewNode(dropSvc{}, Config{NodeID: "n1", Role: RoleLeader, DataDir: t.TempDir(), NoSync: true, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Kill()
	// end is the last slot of the tail's array, which only a new array moves.
	end := func() *Op {
		n.mu.Lock()
		defer n.mu.Unlock()
		all := n.ops[:cap(n.ops)]
		if len(all) == 0 {
			return nil
		}
		return &all[len(all)-1]
	}
	arrays, last := 0, end()
	for i := range writes {
		if err := n.Write(simnet.DCWest, service.Post{ID: fmt.Sprintf("p-%d", i), Author: "a", Body: "x"}); err != nil {
			t.Fatal(err)
		}
		if e := end(); e != last {
			arrays, last = arrays+1, e
		}
	}
	t.Logf("%d writes, SnapshotEvery %d: the tail moved to a new array %d times", writes, every, arrays)
	if limit := writes / every / 2; arrays > limit {
		t.Fatalf("the tail moved to a new array %d times in %d checkpoints, want at most %d", arrays, writes/every, limit)
	}
}
