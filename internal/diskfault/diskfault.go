// Package diskfault is a deterministic, seeded filesystem abstraction
// for storage-fault drills. The durable layers (internal/wal, the
// cluster oplog and term log, internal/checkpoint) perform
// every file operation through the FS interface; production code uses
// the passthrough OS implementation, while tests and chaos drills wrap
// it in an Injector that arms precise, reproducible faults:
//
//   - torn writes: a write persists a prefix of its bytes, then errors —
//     the classic partial sector write of a crash or controller fault.
//   - fsync-gate: Sync returns an error AND the unsynced bytes silently
//     vanish from the file, modeling the post-2018 "fsyncgate" kernel
//     semantics where dirty pages are dropped after a failed writeback.
//     A later successful fsync proves nothing about the lost bytes, so
//     callers must poison the handle on the first failure.
//   - read bit flips: one deterministic bit of a read is inverted,
//     modeling media corruption below the checksum layer.
//   - ENOSPC: a write fails cleanly with no bytes persisted.
//   - dir-sync omission: SyncDir silently does nothing, modeling a
//     filesystem that accepts but ignores directory fsync.
//   - crash-before-rename: Rename fails, leaving the temp file behind,
//     modeling a crash between prepare and publish of an atomic replace.
//
// Faults are armed by (site substring, kind, after-N-matching-ops), so
// a seeded sweep can place the same fault at every interesting point of
// a deterministic operation sequence and the losing placement is
// reproducible from the seed alone.
package diskfault

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"

	"conprobe/internal/obs"
)

// Kind names one injectable fault.
type Kind string

const (
	// KindTorn makes the next matching write persist only a strict
	// non-empty prefix of its bytes and return an error. Writes shorter
	// than 2 bytes cannot tear; the fault stays armed for the next
	// write that can.
	KindTorn Kind = "torn"
	// KindFsyncGate makes the next matching Sync fail and silently
	// drops every byte written since the last successful sync.
	KindFsyncGate Kind = "fsync-gate"
	// KindBitFlip inverts one deterministic bit of the next matching
	// read.
	KindBitFlip Kind = "bit-flip"
	// KindENOSPC fails the next matching write with ENOSPC, persisting
	// nothing.
	KindENOSPC Kind = "enospc"
	// KindDirSyncOmit silently skips the next matching directory sync.
	KindDirSyncOmit Kind = "dirsync-omit"
	// KindCrashRename fails the next matching rename, leaving the
	// source (temp) file in place.
	KindCrashRename Kind = "crash-rename"
)

// Kinds lists every fault kind, in a stable order for sweeps.
func Kinds() []Kind {
	return []Kind{KindTorn, KindFsyncGate, KindBitFlip, KindENOSPC, KindDirSyncOmit, KindCrashRename}
}

// Valid reports whether k names a known fault kind.
func (k Kind) Valid() bool { return slices.Contains(Kinds(), k) }

// Sites maps drill-site names — the storage surfaces a consvc node
// persists through — to the path substring that identifies that site's
// files. Chaos diskfault events — a consvc -disk-fault spec is one —
// name their site by these keys.
var Sites = map[string]string{
	"wal":        "oplog.log",  // the cluster op WAL
	"term":       "term.log",   // the election term log
	"snapshot":   ".log.tmp",   // a compaction's temp file: a log being rewritten around its snapshot
	"checkpoint": "checkpoint", // campaign checkpoint journals
}

// SiteNames lists the known sites in a stable order.
func SiteNames() []string {
	return []string{"wal", "term", "snapshot", "checkpoint"}
}

// File is the handle surface the durable layers need. *os.File
// implements it; faulty implementations wrap one.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS abstracts the filesystem operations behind the WAL, snapshot,
// term-log, and checkpoint writers. Implementations wrap the real
// filesystem — paths stay real paths, so directory listings and
// external tooling keep working — and may inject faults.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs the directory itself, making a preceding rename or
	// create durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS used by production paths.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Stat(name string) (os.FileInfo, error) {
	return os.Stat(name)
}
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Fault arms one injection.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Path is a substring filter on the file (or directory) path; empty
	// matches every path. Sites arm faults by their characteristic file
	// name: "oplog.log", "term.log", ".log.tmp", ".checkpoint".
	Path string
	// After skips the first After matching operations before firing, so
	// a sweep can place the fault at every point of a deterministic
	// operation sequence.
	After int
	// Sticky makes the fault fire on every matching operation once
	// reached, instead of exactly once. ENOSPC drills are sticky — a
	// full disk stays full.
	Sticky bool
	// Seed varies which bit a KindBitFlip inverts and how much of a
	// torn write survives; same seed, same damage.
	Seed uint64
}

func (f Fault) String() string {
	return fmt.Sprintf("%s(path~%q, after %d, sticky %t)", f.Kind, f.Path, f.After, f.Sticky)
}

type armedFault struct {
	Fault
	remaining int // matching ops to skip before firing
	spent     bool
}

// Injector wraps a base FS and fires armed faults deterministically.
// It is safe for concurrent use; the per-fault operation counters make
// injection deterministic whenever the caller's operation sequence is.
type Injector struct {
	base FS

	mu     sync.Mutex
	faults []*armedFault

	injected *obs.Counter
	byKind   map[Kind]*obs.Counter
}

// New builds an Injector over the real filesystem. sc may be nil;
// otherwise diskfault_injected_total counts every fired fault, with a
// per-kind labeled series beside it.
func New(sc *obs.Scope) *Injector {
	in := &Injector{
		base:     OS,
		injected: sc.Counter("diskfault_injected_total", "Storage faults injected by the diskfault layer."),
		byKind:   make(map[Kind]*obs.Counter),
	}
	for _, k := range Kinds() {
		in.byKind[k] = sc.With("fault", string(k)).Counter("diskfault_injected_by_kind_total",
			"Storage faults injected, by fault kind.")
	}
	return in
}

// Arm registers f. Arming an identical not-yet-spent fault again is a
// no-op, so replayed chaos schedules (one per simulation lane) arm each
// drill exactly once.
func (in *Injector) Arm(f Fault) error {
	if !f.Kind.Valid() {
		return fmt.Errorf("diskfault: unknown fault kind %q", f.Kind)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, a := range in.faults {
		if !a.spent && a.Fault == f {
			return nil
		}
	}
	in.faults = append(in.faults, &armedFault{Fault: f, remaining: f.After})
	return nil
}

// Injected returns the total number of faults fired so far.
func (in *Injector) Injected() uint64 { return in.injected.Value() }

// Armed returns how many faults have ever been armed (spent or not) —
// chaos replay tests use it to prove a resumed schedule does not
// double-arm.
func (in *Injector) Armed() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.faults)
}

// match consumes one operation of the given target kind on path and
// returns the fault to fire, if any. Only one fault fires per op.
func (in *Injector) match(kinds []Kind, path string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, a := range in.faults {
		if a.spent || !slices.Contains(kinds, a.Kind) {
			continue
		}
		if !strings.Contains(path, a.Path) {
			continue
		}
		if a.remaining > 0 {
			a.remaining--
			continue
		}
		if !a.Sticky {
			a.spent = true
		}
		f := a.Fault
		in.fired(f.Kind)
		return &f
	}
	return nil
}

func (in *Injector) fired(k Kind) {
	in.injected.Inc()
	if c := in.byKind[k]; c != nil {
		c.Inc()
	}
}

var (
	writeFaults = []Kind{KindTorn, KindENOSPC}
	syncFaults  = []Kind{KindFsyncGate}
	readFaults  = []Kind{KindBitFlip}
)

// FS returns the fault-injecting filesystem view.
func (in *Injector) FS() FS { return faultFS{in: in} }

type faultFS struct {
	in *Injector
}

func (ffs faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := ffs.in.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	// syncedSize is the byte size known durable: what the file held when
	// opened, rolled forward by successful Syncs. A gated fsync rolls
	// the real file back to it, which is exactly the data loss a dropped
	// dirty page causes.
	var synced int64
	if st, err := f.Stat(); err == nil {
		synced = st.Size()
	}
	return &faultFile{File: f, in: ffs.in, synced: synced}, nil
}

func (ffs faultFS) Rename(oldpath, newpath string) error {
	if f := ffs.in.match([]Kind{KindCrashRename}, oldpath+"\x00"+newpath); f != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath,
			Err: fmt.Errorf("diskfault: injected crash before rename")}
	}
	return ffs.in.base.Rename(oldpath, newpath)
}

func (ffs faultFS) Remove(name string) error              { return ffs.in.base.Remove(name) }
func (ffs faultFS) Stat(name string) (os.FileInfo, error) { return ffs.in.base.Stat(name) }

func (ffs faultFS) SyncDir(dir string) error {
	if f := ffs.in.match([]Kind{KindDirSyncOmit}, dir); f != nil {
		return nil // the omission is silent: caller believes the dir synced
	}
	return ffs.in.base.SyncDir(dir)
}

// faultFile wraps a real file handle and fires write/sync/read faults.
type faultFile struct {
	File
	in *Injector

	mu     sync.Mutex // serializes Write and Sync
	synced int64      // bytes known durable (see OpenFile)
}

func (f *faultFile) Write(p []byte) (int, error) {
	// A write waits out a Sync in progress on the handle. A gated fsync
	// drops the unsynced bytes and moves the offset back in two steps, so
	// a write landing between them would leave a hole of zeros mid-file;
	// and one landing between an fsync and its size read would count as
	// synced.
	f.mu.Lock()
	defer f.mu.Unlock()
	// A torn write persists a strict non-empty prefix, which needs at
	// least 2 bytes to exist. On smaller writes a torn fault holds its
	// fire — it stays armed for the next write that can actually tear —
	// rather than degenerating into a 0-byte "tear" that behaves like a
	// clean ENOSPC.
	kinds := writeFaults
	if len(p) < 2 {
		kinds = []Kind{KindENOSPC}
	}
	if fa := f.in.match(kinds, f.Name()); fa != nil {
		switch fa.Kind {
		case KindENOSPC:
			return 0, &fs.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
		case KindTorn:
			// Persist a strict prefix — at least 1 byte when the write has
			// any, never all of them — then fail like an interrupted write.
			n := 1 + int(fa.Seed%uint64(len(p)-1))
			wrote, err := f.File.Write(p[:n])
			if err != nil {
				return wrote, err
			}
			return wrote, &fs.PathError{Op: "write", Path: f.Name(),
				Err: fmt.Errorf("diskfault: injected torn write (%d of %d bytes)", wrote, len(p))}
		}
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fa := f.in.match(syncFaults, f.Name()); fa != nil {
		// fsync-gate: report failure AND drop the unsynced bytes, like a
		// kernel discarding dirty pages after a failed writeback. A later
		// Sync on this handle will "succeed" while the data stays lost —
		// which is why callers must poison the handle on first failure.
		if err := f.File.Truncate(f.synced); err == nil {
			_, _ = f.File.Seek(0, io.SeekEnd)
		}
		return &fs.PathError{Op: "sync", Path: f.Name(),
			Err: fmt.Errorf("diskfault: injected fsync failure (unsynced bytes dropped)")}
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	if st, err := f.File.Stat(); err == nil {
		f.synced = st.Size()
	}
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if err == nil {
		f.mu.Lock()
		if f.synced > size {
			f.synced = size
		}
		f.mu.Unlock()
	}
	return err
}

func (f *faultFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if n > 0 {
		if fa := f.in.match(readFaults, f.Name()); fa != nil {
			i := int(fa.Seed % uint64(n))
			p[i] ^= 1 << (fa.Seed % 8)
		}
	}
	return n, err
}
