package wal

import (
	"sync"

	"conprobe/internal/diskfault"
)

// dirSyncObserver, when set, is called with every directory SyncDir
// fsyncs. Tests use it to assert that rename-based file replacement
// also makes the rename itself durable.
var (
	dirSyncMu       sync.Mutex
	dirSyncObserver func(dir string)
)

// ObserveDirSync installs fn as the SyncDir observer and returns a
// restore function. Test-only; the observer is called synchronously
// after a successful directory fsync.
func ObserveDirSync(fn func(dir string)) (restore func()) {
	dirSyncMu.Lock()
	prev := dirSyncObserver
	dirSyncObserver = fn
	dirSyncMu.Unlock()
	return func() {
		dirSyncMu.Lock()
		dirSyncObserver = prev
		dirSyncMu.Unlock()
	}
}

// SyncDirFS fsyncs the directory itself, making a preceding rename or
// create in it durable. An os.Rename persists the file contents but the
// new directory entry lives in the directory's own metadata, which has
// its own writeback; without this a power cut after rename can resurface
// the old file. Filesystems that refuse fsync on directories (some
// network mounts) return an error here; callers treat that as fatal
// because they chose durability explicitly. fsys nil means the real
// filesystem.
func SyncDirFS(fsys diskfault.FS, dir string) error {
	if err := orOS(fsys).SyncDir(dir); err != nil {
		return err
	}
	dirSyncMu.Lock()
	fn := dirSyncObserver
	dirSyncMu.Unlock()
	if fn != nil {
		fn(dir)
	}
	return nil
}
