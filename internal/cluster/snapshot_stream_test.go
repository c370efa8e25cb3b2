package cluster

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
	"time"
)

// TestSnapshotChunkStreamAndResume walks the leader-side chunk server:
// a full transfer chunk by chunk with per-chunk CRCs, a mid-stream
// resume, an unknown-stream restart, and the freeze guarantee — the
// stream a transfer started from survives log movement byte for byte,
// while a fresh transfer gets a fresh stream.
func TestSnapshotChunkStreamAndResume(t *testing.T) {
	const chunkBytes = 48
	n, err := NewNode(&memSvc{}, Config{
		NodeID: "n1", Role: RoleLeader, DataDir: t.TempDir(),
		SnapshotEvery: 4, SnapshotChunkBytes: chunkBytes,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer n.Close()
	writeOps(t, n, 0, 10)

	first := n.HandleSnapshotChunk(SnapshotChunkRequest{})
	if first.NotLeader || first.ID == "" || first.Offset != 0 || first.Total == 0 {
		t.Fatalf("first chunk: %+v", first)
	}
	var buf []byte
	resp := first
	for {
		if crc32.ChecksumIEEE(resp.Data) != resp.CRC {
			t.Fatalf("chunk at offset %d fails its CRC", resp.Offset)
		}
		if resp.ID != first.ID || resp.Total != first.Total {
			t.Fatalf("stream identity changed mid-transfer: %+v", resp)
		}
		if resp.Offset != uint64(len(buf)) {
			t.Fatalf("chunk at offset %d, expected %d", resp.Offset, len(buf))
		}
		if uint64(len(resp.Data)) > chunkBytes {
			t.Fatalf("chunk of %d bytes exceeds the %d-byte bound", len(resp.Data), chunkBytes)
		}
		buf = append(buf, resp.Data...)
		if uint64(len(buf)) >= resp.Total {
			break
		}
		resp = n.HandleSnapshotChunk(SnapshotChunkRequest{ID: first.ID, Offset: uint64(len(buf))})
	}
	if uint64(len(buf)) != first.Total {
		t.Fatalf("reassembled %d bytes, want %d", len(buf), first.Total)
	}
	if len(buf) <= chunkBytes {
		t.Fatalf("payload fits one chunk (%d bytes); the multi-chunk path went untested", len(buf))
	}
	var pay nodeSnapshot
	if err := json.Unmarshal(buf, &pay); err != nil {
		t.Fatalf("reassembled payload does not parse: %v", err)
	}
	if pay.LastIndex != n.LastIndex() || len(pay.State) != 10 {
		t.Fatalf("payload head %d with %d state ops, want %d and 10", pay.LastIndex, len(pay.State), n.LastIndex())
	}

	// Resume mid-stream: the same bytes come back.
	off := uint64(len(buf) / 2)
	r := n.HandleSnapshotChunk(SnapshotChunkRequest{ID: first.ID, Offset: off})
	want := buf[off:min(off+chunkBytes, uint64(len(buf)))]
	if r.Offset != off || !bytes.Equal(r.Data, want) {
		t.Fatalf("resume at %d returned offset %d with different bytes", off, r.Offset)
	}

	// An unknown stream ID restarts the transfer instead of serving
	// bytes from a stream the installer is not actually buffering.
	r = n.HandleSnapshotChunk(SnapshotChunkRequest{ID: "bogus", Offset: 33})
	if r.Offset != 0 || r.ID != first.ID {
		t.Fatalf("unknown stream: got offset %d id %q, want a restart of %q", r.Offset, r.ID, first.ID)
	}

	// The frozen stream survives log movement (resumability beats
	// freshness) — but a fresh transfer sees a fresh stream.
	writeOps(t, n, 10, 3)
	r = n.HandleSnapshotChunk(SnapshotChunkRequest{ID: first.ID, Offset: off})
	if r.ID != first.ID || r.Total != first.Total || !bytes.Equal(r.Data, want) {
		t.Fatal("in-flight stream was rebuilt under its installer after the log moved")
	}
	fresh := n.HandleSnapshotChunk(SnapshotChunkRequest{})
	if fresh.ID == first.ID {
		t.Fatal("fresh transfer after log movement reused the stale stream")
	}
}

// TestSnapshotInstallRetriesCorruptChunk drives the installer side with
// a hand-played leader: a valid first chunk is buffered, a corrupt
// second chunk must be dropped and re-requested at the SAME offset, and
// the corrected chunk completes the install.
func TestSnapshotInstallRetriesCorruptChunk(t *testing.T) {
	leader, err := NewNode(&memSvc{}, Config{
		NodeID: "L", Role: RoleLeader, DataDir: t.TempDir(), SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatalf("NewNode leader: %v", err)
	}
	defer leader.Close()
	writeOps(t, leader, 0, 6)
	src := leader.HandleSnapshotChunk(SnapshotChunkRequest{})
	if src.Total != uint64(len(src.Data)) {
		t.Fatalf("leader payload should fit one default-size chunk: total %d, got %d bytes", src.Total, len(src.Data))
	}
	data := src.Data

	tr := &captureTransport{}
	f, err := NewNode(&memSvc{}, Config{
		NodeID: "f", LeaderURL: "http://L", DataDir: t.TempDir(),
		PullInterval: time.Hour, ElectionTimeout: time.Hour,
		NoSync: true, Transport: tr,
	})
	if err != nil {
		t.Fatalf("NewNode follower: %v", err)
	}
	t.Cleanup(f.Kill)

	f.mu.Lock()
	f.fetchNextSnapshotChunkLocked("http://L")
	f.mu.Unlock()
	snaps := tr.takeSnaps()
	if len(snaps) != 1 || snaps[0].req.ID != "" || snaps[0].req.Offset != 0 {
		t.Fatalf("initial fetch: %+v", snaps)
	}

	half := len(data) / 2
	chunk := func(off int, d []byte, crc uint32) SnapshotChunkResponse {
		return SnapshotChunkResponse{ID: src.ID, Total: src.Total, Offset: uint64(off), Data: d, CRC: crc}
	}
	good := func(off, end int) SnapshotChunkResponse {
		d := data[off:end]
		return chunk(off, d, crc32.ChecksumIEEE(d))
	}

	snaps[0].done(good(0, half), nil)
	snaps = tr.takeSnaps()
	if len(snaps) != 1 || snaps[0].req.Offset != uint64(half) {
		t.Fatalf("after first chunk: %+v, want a request at offset %d", snaps, half)
	}

	// Corrupt the second chunk: CRC over different bytes than delivered.
	bad := data[half:]
	snaps[0].done(chunk(half, bad, crc32.ChecksumIEEE(bad)+1), nil)
	snaps = tr.takeSnaps()
	if len(snaps) != 1 {
		t.Fatal("corrupt chunk did not trigger a re-request")
	}
	if snaps[0].req.Offset != uint64(half) || snaps[0].req.ID != src.ID {
		t.Fatalf("re-request %+v, want offset %d of stream %q (the corrupt bytes must not be buffered)",
			snaps[0].req, half, src.ID)
	}

	snaps[0].done(good(half, len(data)), nil)
	if got, want := f.LastIndex(), leader.LastIndex(); got != want {
		t.Fatalf("install left the follower at index %d, want %d", got, want)
	}
	if got, want := ids(t, f), ids(t, leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("installed state %v, want %v", got, want)
	}
}
