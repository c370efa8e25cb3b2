package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"conprobe/internal/cluster"
	"conprobe/internal/jsonappend"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// unmarshalPosts is how the client read a timeline before decodePosts:
// json into []PostJSON, then a field-by-field copy.
func unmarshalPosts(body []byte) ([]service.Post, error) {
	var wire []PostJSON
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, err
	}
	return timeline(wire), nil
}

// checkDecodePosts requires decodePosts to read b as json.Unmarshal
// does — the same posts or the same error — and the fast path to accept
// what appendPosts writes for the posts read.
func checkDecodePosts(t *testing.T, b []byte) {
	t.Helper()
	got, err := decodePosts(b)
	want, wantErr := unmarshalPosts(b)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("decodePosts %q: error %v, json.Unmarshal's %v", b, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodePosts %q:\n got %#v\nwant %#v", b, got, want)
	}
	if len(want) == 0 {
		return
	}
	enc, err := appendPosts(nil, want)
	if err != nil || bytes.Contains(enc, []byte(`\`)) {
		return // json.Marshal's to refuse or escape
	}
	sc := jsonappend.NewScanner(enc)
	if scanPosts(&sc, enc); !sc.Done() {
		t.Fatalf("the fast path refused the encoder's own timeline %s", enc)
	}
}

// FuzzDecodePosts feeds arbitrary bytes to decodePosts, which must return
// what json.Unmarshal and the old copy returned, and fail exactly when it
// fails, with its error. The object-shaped seeds are bodies no read
// answers with: decodePosts must refuse them as json.Unmarshal does.
func FuzzDecodePosts(f *testing.F) {
	for _, s := range []string{
		`[]`, `null`, "[]\n", ` []`, `[{"id":"p-1"}]x`, "[{\"id\":\"p-1\"}]\n\n",
		`[{"id":"p-1","author":"alice","body":"hi","created_at":"2016-06-28T09:30:15.123456789Z"},{"id":"p-2","author":"bob","depends_on":"p-1","created_at":"0001-01-01T00:00:00Z"}]` + "\n",
		`[{"id":"p-1","author":"a","created_at":"2016-06-28T09:30:15+09:00"}]`,
		`[{"id":"\u003cp\u003e","author":"a\u0026b"}]`, `[{"id":"tab\t"}]`, "[{\"id\":\"\xff\"}]",
		`[{"author":"a","id":"p-1"}]`, `[{"id":"p-1","id":"p-2"}]`, `[{"ID":"p-1","Author":"a"}]`,
		`[{"id":"p-1","created_at":"not a time"}]`, `[{"id":1}]`, `[null]`, `[{}]`, `[{"id":"p-1"},]`, `{}`, ``,
		`{"mode":"lease","posts":[{"id":"p-1","author":"alice","created_at":"2016-06-28T09:30:15Z"}]}` + "\n",
		`{"mode":"quorum","posts":[]}`, `{"mode":"local","posts":null}`, `{"posts":[{"id":"p-1"}],"mode":"lease"}`, `{"mode":"lease"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodePosts)
}

// TestEmptyAndTrailingReads pins what a read at any mode makes of an
// empty timeline — [] and null read as a non-nil, empty timeline, as the
// old make([]service.Post, len(posts)) gave — and of bytes after the
// value: json.Decoder ignored them, decodePosts refuses them as
// json.Unmarshal does.
func TestEmptyAndTrailingReads(t *testing.T) {
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{"[]\n", true},
		{"null\n", true},
		{"[]", true},
		{`[{"id":"p-1"}] x`, false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, c.body)
		}))
		cl, err := NewClient(srv.URL, "empty", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []cluster.ReadMode{cluster.ReadLocal, cluster.ReadLease} {
			cl.SetReadMode(mode)
			posts, err := cl.Read(simnet.Oregon, "a1")
			switch {
			case c.ok && (err != nil || posts == nil || len(posts) != 0):
				t.Errorf("%s read of %q: %#v, %v; want an empty, non-nil timeline", mode, c.body, posts, err)
			case !c.ok && (err == nil || !strings.Contains(err.Error(), "after top-level value")):
				t.Errorf("%s read of %q: %v; want json.Unmarshal's trailing-data error", mode, c.body, err)
			}
		}
		srv.Close()
	}
}

// TestReadBodyCap: a server that streams a body without end fails a read,
// a clock probe or a status poll once the body passes the client's cap,
// and the error names it.
func TestReadBodyCap(t *testing.T) {
	if MaxReadBodyBytes < 32<<20 {
		t.Fatalf("MaxReadBodyBytes = %d, below any long conload timeline", MaxReadBodyBytes)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := bytes.Repeat([]byte(`{"id":"p","author":"a"},`), 1000)
		io.WriteString(w, "[")
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "flood", nil)
	if err != nil {
		t.Fatal(err)
	}
	cl.maxRead = 1 << 20
	read := func(mode cluster.ReadMode) func() error {
		return func() error { cl.SetReadMode(mode); _, err := cl.Read(simnet.Oregon, "a1"); return err }
	}
	calls := map[string]func() error{
		"local read":  read(cluster.ReadLocal),
		"quorum read": read(cluster.ReadQuorum),
		"time probe":  func() error { _, err := cl.TimeProbe()(); return err },
		"status poll": func() error { _, err := cl.ClusterStatus(); return err },
	}
	for what, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), strconv.Itoa(cl.maxRead)) {
			t.Errorf("%s of an endless body: %v; want an error naming the %d-byte cap", what, err, cl.maxRead)
		}
	}
}

// TestReadTargetsDoNotGrowWithReaders: the client caches one request per
// endpoint and site, not one per reader or mode, however many readers
// share it.
func TestReadTargetsDoNotGrowWithReaders(t *testing.T) {
	cl, stop := readClient(t, 1)
	defer stop()
	for _, mode := range []cluster.ReadMode{cluster.ReadLocal, cluster.ReadQuorum} {
		cl.SetReadMode(mode)
		for u := range 50 {
			_, _ = cl.Read(simnet.Oregon, "loaduser"+strconv.Itoa(u))
		}
	}
	if len(cl.targets) != 1 {
		t.Errorf("100 readers at 2 modes cached %d requests; want 1", len(cl.targets))
	}
}

// TestReadIDsOwnTheirString: a read's post IDs lie next to each other in
// one string of their own, so a trace keeping them keeps nothing else of
// the body.
func TestReadIDsOwnTheirString(t *testing.T) {
	body, err := appendPosts(nil, timelineOf(3))
	if err != nil {
		t.Fatal(err)
	}
	posts, err := decodePosts(body)
	if err != nil || len(posts) != 3 {
		t.Fatalf("read %d posts, %v", len(posts), err)
	}
	want := posts[0].ID + posts[1].ID + posts[2].ID
	if got := unsafe.String(unsafe.StringData(posts[0].ID), len(want)); got != want {
		t.Errorf("the bytes from the first ID on are %q; want the IDs alone, %q", got, want)
	}
}

// TestReadWireUnchanged: a read goes out byte for byte as it did when it
// was built with http.NewRequestWithContext and Header.Set; a named mode
// only adds &mode= to the query.
func TestReadWireUnchanged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{}
	cl, err := NewClient(base, "wire", hc)
	if err != nil {
		t.Fatal(err)
	}
	capture := func(send func()) []byte {
		got := make(chan []byte, 1)
		go func() {
			var raw bytes.Buffer
			defer func() { got <- raw.Bytes() }()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := http.ReadRequest(bufio.NewReader(io.TeeReader(conn, &raw))); err == nil {
				body := `[]`
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
			}
		}()
		send()
		return <-got
	}
	oldGet := func(u string) func() {
		return func() {
			req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, u, nil)
			req.Header.Set(SiteHeader, string(simnet.Tokyo))
			if resp, err := hc.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
	for _, reader := range []string{"a1", "a b&c"} {
		for _, mode := range []cluster.ReadMode{cluster.ReadLocal, cluster.ReadQuorum} {
			cl.SetReadMode(mode)
			got := capture(func() { _, _ = cl.Read(simnet.Tokyo, reader) })
			u := base + "/posts?reader=" + url.QueryEscape(reader)
			if mode != cluster.ReadLocal {
				u += "&mode=" + url.QueryEscape(string(mode))
			}
			want := capture(oldGet(u))
			if len(got) == 0 || !bytes.Equal(got, want) {
				t.Errorf("a %s read by %q on the wire:\n%q\nwas\n%q", mode, reader, got, want)
			}
		}
	}
}

// timelineService serves the same timeline to every read.
type timelineService struct {
	dropService
	posts []service.Post
}

func (s timelineService) Read(simnet.Site, string) ([]service.Post, error) { return s.posts, nil }

// timelineOf is n posts of ordinary length, stamped in UTC.
func timelineOf(n int) []service.Post {
	at := time.Date(2016, 6, 28, 9, 30, 15, 123456789, time.UTC)
	posts := make([]service.Post, n)
	for i := range posts {
		posts[i] = service.Post{
			ID: "p-" + strconv.Itoa(i), Author: "alice", Body: "a post body of ordinary length, nothing to escape",
			CreatedAt: at.Add(time.Duration(i) * time.Millisecond),
		}
	}
	return posts
}

// readClient is a client reading an n-post timeline from a loopback server.
func readClient(tb testing.TB, n int) (*Client, func()) {
	srv := httptest.NewServer(NewServer(timelineService{posts: timelineOf(n)}, ServerConfig{}))
	cl, err := NewClient(srv.URL, "timeline", nil)
	if err != nil {
		tb.Fatal(err)
	}
	return cl, srv.Close
}

// readAllocs16 is what one 16-post Client.Read allocates against a Server
// on loopback, client and server together: 157 while the server copied
// the timeline into a []PostJSON, each request was built by
// http.NewRequestWithContext and Header.Set, and json.Decoder made three
// strings per post. A read now costs the same at any timeline length.
const readAllocs16 = 95

// TestReadAllocs pins what a timeline read over the HTTP facade allocates,
// and that a longer timeline costs no more. A 1-post read is 3 objects
// cheaper than either (logged, not compared): its body fits the server's
// 2 KB buffer and goes out with a Content-Length, not chunked.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := map[int]float64{}
	for _, n := range []int{1, 16, 32} {
		cl, stop := readClient(t, n)
		read := func() {
			if posts, err := cl.Read(simnet.Oregon, "bench"); err != nil || len(posts) != n {
				t.Fatalf("read %d posts, %v; want %d", len(posts), err, n)
			}
		}
		for range 1000 {
			read()
		}
		allocs[n] = testing.AllocsPerRun(4000, read)
		stop()
		t.Logf("a %d-post read allocates %v objects", n, allocs[n])
	}
	if allocs[16] > readAllocs16 {
		t.Errorf("a 16-post read allocates %v objects, pinned at %d", allocs[16], readAllocs16)
	}
	if allocs[32] > allocs[16]+2 {
		t.Errorf("a 32-post read allocates %v objects, a 16-post read %v: a cost per post is back", allocs[32], allocs[16])
	}
}

// BenchmarkTimelineRead is one 16-post GET /posts on loopback, client and
// server together.
func BenchmarkTimelineRead(b *testing.B) {
	cl, stop := readClient(b, 16)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := cl.Read(simnet.Oregon, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
