package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"conprobe/internal/jsonappend"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// FuzzAppendPost holds appendPost to json.Marshal byte for byte — the
// body a client POSTs — and writePost to writeJSON's 201, and requires
// decodePost to read the encoding back as json.Unmarshal does, on the
// fast path whenever it holds no escape.
func FuzzAppendPost(f *testing.F) {
	f.Add("p-1", "alice", "hello world", "", int64(0), int64(0), int32(0))
	f.Add("p-2", "bob", "", "p-1", int64(1467106215), int64(123456789), int32(0))
	f.Add("<p>", "a&b", "quote\" slash\\ tab\t nul\x00 \xff", "line\u2028sep", int64(1467106215), int64(5000), int32(9*3600))
	f.Add("caf\u00e9", "\u65e5\u672c", "", "", int64(253402300800), int64(0), int32(-2*3600))
	f.Fuzz(func(t *testing.T, id, author, body, dep string, sec, nsec int64, zone int32) {
		p := PostJSON{ID: id, Author: author, Body: body, DependsOn: dep}
		if sec != 0 || nsec != 0 {
			loc := time.UTC
			if zone != 0 {
				loc = time.FixedZone("z", int(zone%(18*3600)))
			}
			p.CreatedAt = time.Unix(sec, nsec).In(loc)
		}
		want, wantErr := json.Marshal(p)
		got, err := appendPost([]byte("x"), &p)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%+v: error %v, json.Marshal's %v", p, err, wantErr)
		}
		ack, wantAck := httptest.NewRecorder(), httptest.NewRecorder()
		writePost(ack, &p)
		writeJSON(wantAck, http.StatusCreated, p)
		if ack.Code != wantAck.Code || !reflect.DeepEqual(ack.Header(), wantAck.Header()) || !bytes.Equal(ack.Body.Bytes(), wantAck.Body.Bytes()) {
			t.Fatalf("writePost: %d %v %q, writeJSON %d %v %q", ack.Code, ack.Header(), ack.Body.Bytes(), wantAck.Code, wantAck.Header(), wantAck.Body.Bytes())
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(got[1:], want) {
			t.Fatalf("appendPost:\n got %s\nwant %s", got[1:], want)
		}
		checkPostDecoder(t, want)
		if sc := jsonappend.NewScanner(want); !bytes.Contains(want, []byte(`\`)) {
			if scanPost(&sc, new(PostJSON)); !sc.Done() {
				t.Fatalf("the fast path refused the encoder's own post %s", want)
			}
		}
	})
}

// checkPostDecoder requires decodePost to read b as json.Unmarshal does:
// the same post, or the same error.
func checkPostDecoder(t *testing.T, b []byte) {
	t.Helper()
	var got, want PostJSON
	err, wantErr := decodePost(b, &got), json.Unmarshal(b, &want)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: error %v, json.Unmarshal's %v", b, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %+v\nwant %+v", b, got, want)
	}
}

// FuzzDecodePost feeds arbitrary bytes to decodePost, which must return
// json.Unmarshal's post, and fail exactly when it fails, with its error.
func FuzzDecodePost(f *testing.F) {
	for _, s := range []string{
		`{"id":"p-1","author":"alice","body":"hi","created_at":"0001-01-01T00:00:00Z"}`,
		`{"id":"p-2","author":"bob","depends_on":"p-1","created_at":"2016-06-28T09:30:15.123456789+09:00"}` + "\n",
		`{"id":"p-1","author":"a"}`, `{"id":"p-1","created_at":"not a time"}`, `{"id":"p-1","created_at":null}`,
		`{"id":"p-1","created_at":"10000-01-01T00:00:00Z"}`, `{"id":"p-1","created_at":"2016-06-28T09:30:15+24:00"}`,
		`{"ID":"p-1"}`, `{"id":"p-1","id":"p-2"}`, `{"author":"a","id":"p-1"}`, `{"id":null}`, `{"id":1}`,
		`{"id":"a\u0062"}`, "{\"id\":\"\xff\"}", `{"id":"p-1","extra":true}`, ` {"id":"p-1"}`, `{"id":"p-1"}x`,
		`null`, `{}`, ``, `[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkPostDecoder)
}

// TestPostWireUnchanged: a write goes out byte for byte as it did when it
// was built with json.Marshal, http.NewRequest and Header.Set.
func TestPostWireUnchanged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	p := service.Post{ID: "p-1", Author: "alice", Body: "caf\u00e9 <b>", DependsOn: "p-0"}
	hc := &http.Client{}
	cl, err := NewClient(base, "wire", hc)
	if err != nil {
		t.Fatal(err)
	}
	var raws [][]byte
	for _, send := range []func(){
		func() { _ = cl.Write(simnet.Oregon, p) },
		func() {
			body, _ := json.Marshal(PostJSON{ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn})
			req, _ := http.NewRequest(http.MethodPost, base+"/posts", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(SiteHeader, string(simnet.Oregon))
			if resp, err := hc.Do(req); err == nil {
				resp.Body.Close()
			}
		},
	} {
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
			_, _ = io.WriteString(conn, "HTTP/1.1 201 Created\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
		}()
		send()
		raws = append(raws, <-got)
	}
	if len(raws[0]) == 0 || !bytes.Equal(raws[0], raws[1]) {
		t.Fatalf("a write on the wire:\n%q\nwas\n%q", raws[0], raws[1])
	}
}

// dropService keeps nothing, so an allocation gate counts the wire.
type dropService struct{}

func (dropService) Name() string                                     { return "drop" }
func (dropService) Write(simnet.Site, service.Post) error            { return nil }
func (dropService) Read(simnet.Site, string) ([]service.Post, error) { return nil, nil }
func (dropService) Reset() error                                     { return nil }

// postWriteAllocs is what one Client.Write allocates against a Server
// on loopback, client and server together: 116 while the body went
// through json.Marshal and json.Decoder, each request was built by
// http.NewRequest and Header.Set, and the 201 by json.Encoder.
const postWriteAllocs = 95

// TestPostWriteAllocs pins what a write over the HTTP facade allocates.
func TestPostWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := httptest.NewServer(NewServer(dropService{}, ServerConfig{}))
	defer srv.Close()
	cl, err := NewClient(srv.URL, "drop", nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 6000)
	for i := range ids {
		ids[i] = "p-" + strconv.Itoa(i)
	}
	i := 0
	write := func() {
		p := service.Post{ID: ids[i], Author: "alice", Body: "a post body of ordinary length, nothing to escape"}
		i++
		if err := cl.Write(simnet.Oregon, p); err != nil {
			t.Fatal(err)
		}
	}
	for i < 1000 {
		write()
	}
	got := testing.AllocsPerRun(4000, write)
	if got > postWriteAllocs {
		t.Fatalf("a write allocates %v objects, pinned at %d", got, postWriteAllocs)
	}
	t.Logf("a write allocates %v objects", got)
}
