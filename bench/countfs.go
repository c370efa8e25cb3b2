package main

import (
	"os"
	"sync"
	"time"

	"conprobe/internal/diskfault"
)

// fsCounts is what a countFS has seen so far.
type fsCounts struct {
	Writes, Bytes, Syncs, DirSyncs, Renames int64
	SyncTime                                time.Duration
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		Writes: a.Writes - b.Writes, Bytes: a.Bytes - b.Bytes, Syncs: a.Syncs - b.Syncs,
		DirSyncs: a.DirSyncs - b.DirSyncs, Renames: a.Renames - b.Renames,
		SyncTime: a.SyncTime - b.SyncTime,
	}
}

// countFS is the benchmark's diskfault.FS shim, passed to the durable
// layers as Config.FS/Options.FS. It does two jobs from outside the
// program: it counts writes, bytes and fsyncs (and, when traced, times
// them as spans), and it remembers each file's length at its last
// successful fsync so discardUnsynced can cut every file back to it —
// a killed process leaves the page cache intact, so a durability check
// has to discard unsynced bytes itself.
//
// Only file data is modelled: a rename is taken as durable at once
// (lost directory entries are the repo's own diskfault sweeps' job).
type countFS struct {
	base diskfault.FS
	// layer prefixes span names ("wal" gives wal.fsync, wal.write).
	layer string
	rec   *recorder
	// parent names the span that caused the file operation, when the
	// caller can tell; nil means root.
	parent func() int

	mu     sync.Mutex
	counts fsCounts
	synced map[string]int64
	// syncDurs keeps every fsync's duration while traced.
	syncDurs []time.Duration
}

func newCountFS(layer string, rec *recorder, parent func() int) *countFS {
	return &countFS{base: diskfault.OS, layer: layer, rec: rec, parent: parent, synced: make(map[string]int64)}
}

func (c *countFS) snapshot() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

func (c *countFS) parentSpan() int {
	if c.parent == nil {
		return -1
	}
	return c.parent()
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := c.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.synced[name]; !ok {
		// A file that existed before the shim saw it is taken as synced at
		// its current length; a new one at zero.
		var size int64
		if flag&os.O_TRUNC == 0 {
			if st, serr := f.Stat(); serr == nil {
				size = st.Size()
			}
		}
		c.synced[name] = size
	}
	c.mu.Unlock()
	return &countFile{File: f, fs: c, path: name}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	if err := c.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	c.counts.Renames++
	if n, ok := c.synced[oldpath]; ok {
		c.synced[newpath] = n
		delete(c.synced, oldpath)
	}
	c.mu.Unlock()
	return nil
}

func (c *countFS) Remove(name string) error {
	err := c.base.Remove(name)
	if err == nil {
		c.mu.Lock()
		delete(c.synced, name)
		c.mu.Unlock()
	}
	return err
}

func (c *countFS) Stat(name string) (os.FileInfo, error) { return c.base.Stat(name) }

func (c *countFS) SyncDir(dir string) error {
	id := c.rec.begin(c.layer+".dirsync", c.parentSpan(), 0)
	err := c.base.SyncDir(dir)
	c.rec.end(id)
	c.mu.Lock()
	c.counts.DirSyncs++
	c.mu.Unlock()
	return err
}

// discardUnsynced truncates every file the shim has seen to its length
// at the last successful fsync, as a power cut would.
func (c *countFS) discardUnsynced() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path, n := range c.synced {
		st, err := os.Stat(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if st.Size() > n {
			if err := os.Truncate(path, n); err != nil {
				return err
			}
		}
	}
	return nil
}

type countFile struct {
	diskfault.File
	fs   *countFS
	path string
}

func (f *countFile) Write(p []byte) (int, error) {
	id := f.fs.rec.begin(f.fs.layer+".write", f.fs.parentSpan(), 0)
	n, err := f.File.Write(p)
	f.fs.rec.end(id)
	f.fs.mu.Lock()
	f.fs.counts.Writes++
	f.fs.counts.Bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Sync() error {
	id := f.fs.rec.begin(f.fs.layer+".fsync", f.fs.parentSpan(), 0)
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.rec.end(id)
	var size int64 = -1
	if err == nil {
		if st, serr := f.File.Stat(); serr == nil {
			size = st.Size()
		}
	}
	f.fs.mu.Lock()
	f.fs.counts.Syncs++
	f.fs.counts.SyncTime += d
	if size >= 0 {
		f.fs.synced[f.path] = size
	}
	if f.fs.rec != nil {
		f.fs.syncDurs = append(f.fs.syncDurs, d)
	}
	f.fs.mu.Unlock()
	return err
}
