package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"conprobe/internal/diskfault"
)

// WriteSnapshot atomically replaces the file at path with a single
// CRC32-framed record holding payload, on the real filesystem with the
// default mode. See WriteSnapshotFS.
func WriteSnapshot(path string, payload []byte) error {
	return WriteSnapshotFS(nil, path, payload, 0)
}

// WriteSnapshotFS atomically replaces the file at path with a single
// CRC32-framed record holding payload, through ReplaceFileFS. fsys nil
// means the real filesystem; mode zero means DefaultFileMode.
func WriteSnapshotFS(fsys diskfault.FS, path string, payload []byte, mode os.FileMode) error {
	err := ReplaceFileFS(fsys, path, mode, func(w io.Writer) error {
		_, err := w.Write(AppendFrame(make([]byte, 0, FrameHeader+len(payload)), payload))
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: snapshot %s: %w", path, err)
	}
	return nil
}

// ReplaceFileFS atomically replaces the file at path with what write
// produces. The content goes to a temporary file in the same directory,
// is fsynced, renamed over path, and the parent directory is fsynced so
// the rename survives power loss — without that a crash can resurrect
// the old file or leave neither name pointing at a complete one. A
// crash or failure at any point leaves either the old file or the new
// one, never a mix. Log compaction (Log.Rewrite) and checkpoint journal
// creation replace their file through here.
//
// The temp file is created with O_EXCL at a fixed name (path + ".tmp"):
// a half-written temp left by a crashed prior run is detected as an
// EEXIST, deleted (it was never renamed, so nothing referenced it), and
// rewritten from scratch — it can never be adopted by the rename.
// fsys nil means the real filesystem; mode zero means DefaultFileMode.
func ReplaceFileFS(fsys diskfault.FS, path string, mode os.FileMode, write func(io.Writer) error) error {
	_, err := replaceFile(fsys, path, mode, write)
	return err
}

// replaceFile is ReplaceFileFS, also reporting whether the rename
// happened: an error with renamed set means path already names the new
// file but the directory entry may not survive a power cut.
func replaceFile(fsys diskfault.FS, path string, mode os.FileMode, write func(io.Writer) error) (renamed bool, err error) {
	fsys = orOS(fsys)
	if mode == 0 {
		mode = DefaultFileMode
	}
	tmpName := path + ".tmp"
	tmp, err := fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_EXCL, mode)
	if os.IsExist(err) {
		// Stale temp from a crashed run: discard and claim the name.
		if rerr := fsys.Remove(tmpName); rerr != nil {
			return false, fmt.Errorf("removing stale temp: %w", rerr)
		}
		tmp, err = fsys.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_EXCL, mode)
	}
	if err != nil {
		return false, err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmpName, path)
	}
	if err != nil {
		fsys.Remove(tmpName)
		return false, err
	}
	if err := SyncDirFS(fsys, filepath.Dir(path)); err != nil {
		return true, fmt.Errorf("syncing directory: %w", err)
	}
	return true, nil
}

// ReadSnapshot reads a snapshot written by WriteSnapshot from the real
// filesystem. See ReadSnapshotFS.
func ReadSnapshot(path string) (payload []byte, ok bool, err error) {
	return ReadSnapshotFS(nil, path)
}

// ReadFS replays the log at path read-only: unlike Open it never
// creates the file, truncates a torn tail or quarantines. A torn final
// record is dropped and noted in the Replay; damage anywhere earlier is
// a *CorruptError. fsys nil means the real filesystem.
func ReadFS(fsys diskfault.FS, path string) (Replay, error) {
	f, err := orOS(fsys).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return Replay{}, err
	}
	defer f.Close()
	rep, _, err := scan(f, path)
	return rep, err
}

// ReadSnapshotFS reads a snapshot written by WriteSnapshotFS. A missing
// file returns (nil, false, nil): no snapshot yet. A torn or damaged
// snapshot returns a *CorruptError — unlike a log's torn tail there is
// no prefix worth salvaging, and silently ignoring a snapshot would
// resurrect every compacted-away record as a silent data loss.
func ReadSnapshotFS(fsys diskfault.FS, path string) (payload []byte, ok bool, err error) {
	rep, err := ReadFS(fsys, path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if len(rep.Records) != 1 || rep.Note != "" {
		return nil, false, &CorruptError{Path: path, Offset: 0,
			Reason: fmt.Sprintf("snapshot must hold exactly one intact record, found %d (%s)", len(rep.Records), rep.Note)}
	}
	return rep.Records[0], true, nil
}
