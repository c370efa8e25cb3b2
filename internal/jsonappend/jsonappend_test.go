package jsonappend

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// same requires an append primitive to agree with json.Marshal on v: the
// bytes, or the refusal and its text.
func same(t *testing.T, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%#v: error %v, json.Marshal's %v", v, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Fatalf("%#v:\n got %s\nwant x%s", v, got, want)
	}
}

func TestStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain ascii ~ !#$%'()*+,-./:;=?@[]^_`{|}", `quote" slash\`, "<script>&amp;", "tab\t nl\n nul\x00 esc\x1b del\x7f",
		"caf\u00e9 \u65e5\u672c", "line\u2028sep\u2029", "bad \xff\xfe utf8", "\xc3", "\U0001F600",
	} {
		same(t, s, String([]byte("x"), s), nil)
	}
}

func TestTimeMatchesMarshal(t *testing.T) {
	at := time.Date(2016, 6, 28, 9, 30, 15, 123456789, time.UTC)
	for _, tm := range []time.Time{
		{}, at, at.Truncate(time.Second), at.Truncate(time.Millisecond), at.Add(10 * time.Nanosecond),
		time.Unix(0, 0).UTC(), time.Unix(1467106215, 5000).UTC(),
		time.Now(), time.Now().UTC(), at.Local(),
		at.In(time.FixedZone("", 9*3600)), at.In(time.FixedZone("UTC", 0)), at.In(time.FixedZone("odd", -(3*3600 + 30*60 + 7))),
		at.In(time.FixedZone("far", 25*3600)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 0, 0, 0, time.FixedZone("", -2*3600)), // year 9999 there, 10000 in UTC
	} {
		got, err := Time([]byte("x"), tm)
		same(t, tm, got, err)
	}
}

func TestMarshalAppendsOrRefuses(t *testing.T) {
	got, err := Marshal([]byte("x"), map[int]string{2: "b", 10: "a"})
	same(t, map[int]string{2: "b", 10: "a"}, got, err)
	if got, err := Marshal([]byte("x"), make(chan int)); err == nil || got != nil {
		t.Fatalf("an unmarshalable value appended %q, error %v", got, err)
	}
}
