package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"conprobe/internal/service"
)

// TestPostsResponseMatchesMarshal: a read is answered with exactly the
// bytes writeJSON sent for the same timeline copied into a []PostJSON —
// json.Encoder's, newline included — whatever the posts hold.
func TestPostsResponseMatchesMarshal(t *testing.T) {
	at := time.Date(2016, 6, 28, 9, 30, 15, 123456789, time.UTC)
	for name, posts := range map[string][]service.Post{
		"nil":   nil,
		"empty": {},
		"plain": {
			{ID: "p-1", Author: "alice", Body: "hello", CreatedAt: at},
			{ID: "p-2", Author: "bob", DependsOn: "p-1", CreatedAt: at.Truncate(time.Second)},
		},
		"zero time": {{ID: "p-1", Author: "alice"}},
		"zones":     {{ID: "p-1", CreatedAt: at.In(time.FixedZone("", 9*3600))}, {ID: "p-2", CreatedAt: at.Local()}},
		"escapes": {
			{ID: "<p>", Author: "a&b", Body: `quote" slash\ tab` + "\t", DependsOn: "line\u2028sep", CreatedAt: at},
			{ID: "caf\u00e9", Author: "\u65e5\u672c", Body: "bad \xff utf8", CreatedAt: at},
		},
	} {
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, wireOf(posts))
		got := httptest.NewRecorder()
		writePosts(got, posts)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%s: status %d %q, want %d %q", name, got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", name, got.Body.Bytes(), want.Body.Bytes())
		}
	}

	// A timestamp json refuses leaves the body empty either way.
	bad := []service.Post{{ID: "p-1", CreatedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}
	if _, err := json.Marshal(wireOf(bad)); err == nil {
		t.Fatal("json.Marshal encoded year 10000")
	}
	got := httptest.NewRecorder()
	writePosts(got, bad)
	if got.Body.Len() != 0 {
		t.Errorf("an unencodable timeline was answered with %q", got.Body.Bytes())
	}
}

// wireOf is the copy GET /posts once made of a timeline before encoding it.
func wireOf(posts []service.Post) []PostJSON {
	out := make([]PostJSON, len(posts))
	for i, p := range posts {
		out[i] = PostJSON{ID: p.ID, Author: p.Author, Body: p.Body, DependsOn: p.DependsOn, CreatedAt: p.CreatedAt}
	}
	return out
}
