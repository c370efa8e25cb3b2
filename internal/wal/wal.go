// Package wal implements the crash-safe binary persistence primitives
// of the replicated consvc cluster: an
// append-only log of CRC32-framed records with group-committed fsync,
// compacted by atomically rewriting the whole file (tmp+rename), so a
// compacted log is its own snapshot. The internal/checkpoint campaign
// journal is one such log.
//
// Record framing: every record is [4-byte little-endian payload length]
// [4-byte little-endian IEEE CRC32 of the payload][payload]. Replay
// walks the frames sequentially; a record cut short by a crash — the
// frame extends past the end of the file, or its checksum fails on the
// very last frame — is the classic torn tail: it is dropped, noted, and
// physically truncated away so subsequent appends start from a clean
// offset. Damage anywhere before the final frame cannot be
// distinguished from data loss and is reported as a *CorruptError
// positioned by byte offset — or, when the caller opted into
// Quarantine, the whole damaged file is set aside as a .corrupt sidecar
// and the log reopens empty, for callers that can re-source the data
// (a cluster follower rejoins via the leader's snapshot stream).
//
// Group commit: concurrent Append calls each write their frame under
// the log's lock, then meet at the sync gate. The first appender
// through the gate fsyncs once for every frame buffered so far; the
// rest observe that a later sync already covered their record and
// return without issuing their own. Under write bursts the fsync cost
// is amortized across the batch — the classic group-commit pattern —
// while every Append still returns only after its record is durable.
// Append is Write then Sync; a caller that may return before its record
// is durable calls the two itself, with Sync issued behind it.
//
// Fault model: every file operation goes through a diskfault.FS, so
// tests and chaos drills inject torn writes, failed fsyncs, bit flips
// and ENOSPC deterministically. A failed fsync POISONS the log — no
// later append or sync can succeed on the handle — because a kernel
// that fails a writeback may drop the dirty pages, after which a
// "successful" retry proves nothing (the fsyncgate semantics). A failed
// frame write is repaired by truncating back to the last good frame
// boundary so the log never carries a half-written frame into the next
// append; if the repair itself fails, the log poisons too.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"conprobe/internal/diskfault"
	"conprobe/internal/obs"
)

// FrameHeader is the per-record overhead: 4 bytes length + 4 bytes CRC.
const FrameHeader = 8

// putFrameHeader writes payload's length and checksum into frame[:8].
func putFrameHeader(frame, payload []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
}

// appendFrame appends payload, framed as one record, to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeader]byte
	putFrameHeader(hdr[:], payload)
	return append(append(dst, hdr[:]...), payload...)
}

// MaxRecordBytes bounds a single record's payload. A mid-file length
// field corrupted into a huge value would otherwise read as a plausible
// torn tail; capping record size turns it into a positioned error.
const MaxRecordBytes = 64 << 20

// maxKeptFrames is the largest frame buffer a log keeps between appends.
const maxKeptFrames = 1 << 20

// DefaultFileMode is the permission new log and snapshot files get.
const DefaultFileMode os.FileMode = 0o644

// ErrPoisoned marks a log unusable after a failed fsync (or a failed
// torn-write repair): the handle may have silently lost unsynced bytes,
// so no further append can honestly claim durability. Callers stop
// acking and recover by reopening — replay trusts only what is actually
// on disk.
var ErrPoisoned = errors.New("wal: log poisoned by storage failure")

// CorruptError reports unrecoverable damage inside a log or snapshot
// file, positioned by the byte offset of the damaged frame.
type CorruptError struct {
	// Path is the damaged file.
	Path string
	// Offset is the byte offset of the frame that failed to decode.
	Offset int64
	// Reason describes the damage ("checksum mismatch", ...).
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: %s: corrupt record at byte offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Options configure a Log.
type Options struct {
	// NoSync skips every fsync. Benchmarks and tests that do not measure
	// durability use it; production paths must not.
	NoSync bool
	// FS is the filesystem the log runs on; nil means the real one.
	// Fault drills pass a diskfault.Injector's FS.
	FS diskfault.FS
	// Quarantine survives mid-log corruption instead of refusing to
	// open: the damaged file is renamed to a .corrupt sidecar, the log
	// reopens empty, and Replay.Quarantined reports it. Only callers
	// that can re-source the lost records (cluster nodes, which rejoin
	// via the leader's snapshot-install stream) should set it; a leader
	// without peers must not, because for it detection is the last line
	// of defense.
	Quarantine bool
	// Metrics, when non-nil, counts fsync poisonings
	// (fsync_poisoned_total) and quarantined segments
	// (wal_quarantined_segments).
	Metrics *obs.Scope
}

// orOS is fsys, or the real filesystem when fsys is nil.
func orOS(fsys diskfault.FS) diskfault.FS {
	if fsys == nil {
		return diskfault.OS
	}
	return fsys
}

// Replay is the outcome of reading a log back on Open.
type Replay struct {
	// Records holds every intact payload, in append order.
	Records [][]byte
	// Note reports a tolerated torn tail ("dropped torn final record at
	// byte offset N") or a quarantine; empty for a clean log.
	Note string
	// Quarantined reports that mid-log corruption was found and the
	// whole damaged file was set aside as a .corrupt sidecar (Quarantine
	// option). Records is empty: the caller must re-source its state.
	Quarantined bool
}

// Log is an append-only record log with group-committed fsync.
type Log struct {
	path   string
	fsys   diskfault.FS
	nosync bool

	// mu guards the file and the append counter; appends write their
	// frame under it and release it before syncing.
	mu       sync.Mutex
	f        diskfault.File
	appended uint64 // records written to the file (durable or not)
	size     int64  // byte offset of the end of the last good frame
	failed   error  // non-nil once the log is poisoned
	frames   []byte // scratch the frames of one append are assembled in

	// syncMu is the group-commit gate; syncedTo is the append counter
	// value covered by the last completed fsync.
	syncMu   sync.Mutex
	syncedTo uint64

	poisonCount *obs.Counter
}

// Open opens (creating if absent) the log at path and replays its
// records. A torn final record is dropped, noted in the Replay, and
// truncated off the file; corruption anywhere earlier returns a
// *CorruptError and no Log — unless Options.Quarantine is set, in which
// case the damaged file becomes a .corrupt sidecar and the log reopens
// empty with Replay.Quarantined set.
func Open(path string, opts Options) (*Log, Replay, error) {
	fsys := orOS(opts.FS)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, DefaultFileMode)
	if err != nil {
		return nil, Replay{}, err
	}
	rep, valid, err := scan(f, path)
	if err != nil {
		f.Close()
		var ce *CorruptError
		if !opts.Quarantine || !errors.As(err, &ce) {
			return nil, Replay{}, err
		}
		// The damaged bytes stay on disk for forensics instead of being
		// silently destroyed; a sidecar from an earlier incident is clobbered.
		sidecar := path + ".corrupt"
		if qerr := fsys.Rename(path, sidecar); qerr != nil {
			return nil, Replay{}, fmt.Errorf("wal: quarantining %s: %v (original damage: %w)", path, qerr, err)
		}
		opts.Metrics.Counter("wal_quarantined_segments",
			"Damaged WAL or snapshot files set aside as .corrupt sidecars.").Inc()
		if f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, DefaultFileMode); err != nil {
			return nil, Replay{}, err
		}
		rep = Replay{
			Quarantined: true,
			Note:        fmt.Sprintf("quarantined corrupt log to %s (%v)", sidecar, ce),
		}
		valid = 0
	}
	if rep.Note != "" && !rep.Quarantined {
		// Physically drop the torn tail so the next append starts at a
		// clean frame boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, Replay{}, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, Replay{}, err
	}
	l := &Log{path: path, fsys: fsys, nosync: opts.NoSync, f: f, size: valid}
	l.appended = uint64(len(rep.Records))
	l.syncedTo = l.appended
	l.poisonCount = opts.Metrics.Counter("fsync_poisoned_total",
		"WAL handles poisoned by a failed fsync or failed write repair.")
	return l, rep, nil
}

// scan reads every frame from r, returning the replay and the byte
// offset of the end of the last intact frame.
func scan(r io.Reader, path string) (Replay, int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Replay{}, 0, err
	}
	var rep Replay
	size := int64(len(data))
	off := int64(0)
	for off < size {
		rest := size - off
		torn := func(reason string) {
			rep.Note = fmt.Sprintf("dropped torn final record at byte offset %d (%s)", off, reason)
		}
		if rest < FrameHeader {
			torn("incomplete frame header")
			return rep, off, nil
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		stored := binary.LittleEndian.Uint32(data[off+4:])
		if length > MaxRecordBytes {
			// A length this absurd is a damaged header, not a short write.
			return Replay{}, 0, &CorruptError{Path: path, Offset: off,
				Reason: fmt.Sprintf("record length %d exceeds limit %d", length, int64(MaxRecordBytes))}
		}
		end := off + FrameHeader + length
		if end > size {
			torn("frame extends past end of file")
			return rep, off, nil
		}
		payload := data[off+FrameHeader : end]
		if got := crc32.ChecksumIEEE(payload); got != stored {
			if end == size {
				// Garbage in the very last frame: a crash mid-write.
				torn(fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", stored, got))
				return rep, off, nil
			}
			return Replay{}, 0, &CorruptError{Path: path, Offset: off,
				Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", stored, got)}
		}
		rec := make([]byte, length)
		copy(rec, payload)
		rep.Records = append(rep.Records, rec)
		off = end
	}
	return rep, off, nil
}

// Append writes one record and returns once it is durable (unless the
// log was opened with NoSync): Write, then Sync. Safe for concurrent
// use; concurrent appends share fsyncs through the group-commit gate.
func (l *Log) Append(payload []byte) error {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch writes one frame per payload with a single file write and
// returns once the whole batch is durable: one fsync however many
// records it holds. The write is all or nothing on the handle — a short
// or failed write is truncated back to the last good frame boundary —
// while a crash mid-batch leaves a prefix of whole frames plus at most
// one torn tail, which replay drops like any other.
func (l *Log) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	n, err := l.write(payloads)
	if err != nil {
		return err
	}
	return l.Sync(n)
}

// Write writes one record without waiting for it to be durable and
// returns n, the number of records the log holds through this one:
// Sync(n) makes it durable. Until then a process kill loses nothing
// (the frame is in the file), but a power cut may. Safe for concurrent
// use; frames land in the file in the order their Writes take the lock.
func (l *Log) Write(payload []byte) (n uint64, err error) {
	return l.write([][]byte{payload})
}

// write appends one frame per payload with a single file write and
// returns the record count through the last of them.
func (l *Log) write(payloads [][]byte) (uint64, error) {
	if err := l.checkSizes(payloads); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, fmt.Errorf("wal: %s: append on closed log", l.path)
	}
	if l.failed != nil {
		return 0, l.failed
	}
	// Frames are assembled in a buffer the log keeps, so an append
	// allocates nothing once the buffer has grown to the working size.
	buf := l.frames[:0]
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	if l.frames = buf; cap(buf) > maxKeptFrames {
		l.frames = nil // one outsized record must not pin its size for good
	}
	if _, err := l.f.Write(buf); err != nil {
		// A short or failed write may have left a partial frame on disk.
		// Truncate back to the last good frame boundary so the damage
		// cannot end up in the middle of the log once later appends land
		// after it; a failed repair poisons the log instead.
		if terr := l.f.Truncate(l.size); terr != nil {
			l.poisonLocked(fmt.Errorf("wal: %s: unrepairable partial write (%v): %w", l.path, terr, ErrPoisoned))
		} else if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.poisonLocked(fmt.Errorf("wal: %s: seek after write repair (%v): %w", l.path, serr, ErrPoisoned))
		}
		return 0, fmt.Errorf("wal: appending to %s: %w", l.path, err)
	}
	l.size += int64(len(buf))
	l.appended += uint64(len(payloads))
	return l.appended, nil
}

// checkSizes refuses a payload no replay would accept back.
func (l *Log) checkSizes(payloads [][]byte) error {
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return fmt.Errorf("wal: %s: record of %d bytes exceeds limit %d", l.path, len(p), MaxRecordBytes)
		}
	}
	return nil
}

// poisonLocked marks the log permanently failed. Caller holds l.mu.
func (l *Log) poisonLocked(err error) {
	if l.failed == nil {
		l.failed = err
		if l.poisonCount != nil {
			l.poisonCount.Inc()
		}
	}
}

// Poisoned returns the poison error, or nil while the log is healthy.
func (l *Log) Poisoned() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Sync returns once the first n records are durable (at once under
// NoSync). The caller that wins the gate fsyncs once for every frame
// written so far; laggards see an fsync has already covered them and
// return without issuing their own, as does a Sync for records an
// earlier fsync covered. A failed fsync poisons the log: that Sync
// returns the fsync's error, and every later Sync for a record it did
// not make durable returns the poison.
func (l *Log) Sync(n uint64) error {
	if l.nosync {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedTo >= n {
		return nil // a group fsync while we waited already covered us
	}
	// Capture the batch bound before syncing: frames written after this
	// read may or may not be flushed by the fsync below, so only the
	// captured prefix is marked durable.
	l.mu.Lock()
	covered := l.appended
	f := l.f
	failed := l.failed
	l.mu.Unlock()
	if failed != nil {
		return failed
	}
	if f == nil {
		return fmt.Errorf("wal: %s: sync on closed log", l.path)
	}
	if err := f.Sync(); err != nil {
		// The kernel may have dropped the dirty pages it failed to write:
		// a later fsync "succeeding" would not make them durable. Poison
		// the handle so no record written since the last good sync is
		// ever acked (the fsyncgate rule).
		l.mu.Lock()
		l.poisonLocked(fmt.Errorf("wal: %s: fsync failed (%v): %w", l.path, err, ErrPoisoned))
		l.mu.Unlock()
		return fmt.Errorf("wal: syncing %s: %w", l.path, err)
	}
	l.syncedTo = covered
	return nil
}

// Rewrite atomically replaces the log's whole content with one frame
// per payload and reopens the path for append. It is how a log is
// compacted: the caller passes the records that stand for everything
// journaled so far (a snapshot is just the first of them), and a crash
// or failure at any point leaves the old log or the new one on disk,
// never a mix (ReplaceFileFS). The new content is fsynced before it is
// renamed into place, whatever Options.NoSync says.
//
// An error from before the rename leaves the log exactly as it was,
// appendable. After it the old handle points at an unlinked file, so it
// is closed unsynced and the path is opened afresh; if that fails, or
// the rename could not be made durable, the log poisons, because an
// append through the old handle would be acked and lost.
//
// Rewrite excludes concurrent appends while it runs but cannot know what
// they wrote: a record appended to the old file and not among payloads
// is gone, and its appender is still told it is durable. A caller with
// concurrent appenders puts each record where its next Rewrite will find
// it before appending it.
func (l *Log) Rewrite(payloads [][]byte) error {
	if err := l.checkSizes(payloads); err != nil {
		return err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: %s: rewrite on closed log", l.path)
	}
	if l.failed != nil {
		return l.failed
	}
	var size int64
	renamed, err := replaceFile(l.fsys, l.path, DefaultFileMode, func(w io.Writer) error {
		// Header and payload go out separately, so a record as large as
		// the state it captures is never copied into a frame first.
		bw := bufio.NewWriter(w)
		var hdr [FrameHeader]byte
		for _, p := range payloads {
			putFrameHeader(hdr[:], p)
			bw.Write(hdr[:])
			bw.Write(p)
			size += int64(FrameHeader + len(p))
		}
		return bw.Flush()
	})
	if !renamed {
		return fmt.Errorf("wal: rewriting %s: %w", l.path, err)
	}
	// From here the path names the new file whatever else fails.
	var f diskfault.File
	if err == nil {
		if f, err = l.fsys.OpenFile(l.path, os.O_RDWR, DefaultFileMode); err == nil {
			if _, err = f.Seek(size, io.SeekStart); err != nil {
				f.Close()
			}
		}
	}
	if err != nil {
		l.poisonLocked(fmt.Errorf("wal: %s: rewrite not finished after its rename (%v): %w", l.path, err, ErrPoisoned))
		return fmt.Errorf("wal: finishing the rewrite of %s: %w", l.path, err)
	}
	l.f.Close() // the replaced file: nothing in it matters any more
	l.f, l.size = f, size
	// Every record ever appended is now either in the synced new file or
	// dropped on purpose; an appender still waiting at the gate is covered.
	l.syncedTo = l.appended
	return nil
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the log file. Appended records remain on disk.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
