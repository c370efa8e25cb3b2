package checkpoint

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conprobe/internal/diskfault"
)

// holdFS passes every file operation through, except that once held is
// set, a Sync on a file opened through it first announces itself on
// entered and then blocks until release is closed.
type holdFS struct {
	diskfault.FS
	held    *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

type holdFile struct {
	diskfault.File
	fs holdFS
}

func (h holdFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return holdFile{File: f, fs: h}, nil
}

func (f holdFile) Sync() error {
	if f.fs.held.Load() {
		select {
		case f.fs.entered <- struct{}{}:
		default:
		}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestAppendDoesNotWaitForFsync pins the journal's pipeline: with one
// fsync held on the disk, maxUnsynced Appends return, the next one waits
// for that fsync, Degraded waits until every frame is durable, and Close
// leaves no syncer behind.
func TestAppendDoesNotWaitForFsync(t *testing.T) {
	traces := campaignTraces(t)
	base := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	fsys := holdFS{FS: diskfault.OS, held: new(atomic.Bool),
		entered: make(chan struct{}, 1), release: make(chan struct{})}
	w, err := Create(path, testMeta, Config{KeepTraces: true, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	fsys.held.Store(true) // the syncer has nothing to sync before the first Append
	release := sync.OnceFunc(func() { close(fsys.release) })
	t.Cleanup(release) // a failed run must not leave the syncer held
	appendOne := func(i int) error {
		tr := traces[i%len(traces)]
		return w.Append(i%2, tr, testMeta.Start.Add(time.Duration(i+1)*time.Minute), nil)
	}
	// returns reports whether f returns within d, and hands back a
	// channel that is closed once it does.
	returns := func(d time.Duration, f func()) (bool, chan struct{}) {
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
			return true, done
		case <-time.After(d):
			return false, done
		}
	}

	if ok, _ := returns(10*time.Second, func() {
		if err := appendOne(0); err != nil {
			t.Error(err)
		}
	}); !ok {
		t.Fatal("Append 1 waited for its own fsync")
	}
	select {
	case <-fsys.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the syncer never fsynced the first frame")
	}
	// The fsync of frame 1 is on the disk; frames 2..maxUnsynced go in
	// behind it without waiting.
	ok, _ := returns(10*time.Second, func() {
		for i := 1; i < maxUnsynced; i++ {
			if err := appendOne(i); err != nil {
				t.Error(err)
			}
		}
	})
	if !ok {
		t.Fatalf("Appends 2..%d waited for the held fsync", maxUnsynced)
	}
	ok, appended := returns(100*time.Millisecond, func() {
		if err := appendOne(maxUnsynced); err != nil {
			t.Error(err)
		}
	})
	if ok {
		t.Fatalf("Append %d returned with %d frames unsynced", maxUnsynced+1, maxUnsynced)
	}
	ok, degraded := returns(50*time.Millisecond, func() {
		if err := w.Degraded(); err != nil {
			t.Error(err)
		}
	})
	if ok {
		t.Fatal("Degraded returned while an fsync was held")
	}
	release()
	for name, c := range map[string]chan struct{}{"the held Append": appended, "Degraded": degraded} {
		select {
		case <-c:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned after the fsync was released", name)
		}
	}
	// Degraded returned, so every frame is durable; Load reads them all.
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Lanes[0].Done) + len(st.Lanes[1].Done); got != maxUnsynced+1 {
		t.Fatalf("journal holds %d tests, want %d", got, maxUnsynced+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Create, %d after Close", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
