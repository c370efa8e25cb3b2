package vtime

import "sync"

// RealRuntime is a Runtime backed by the Go runtime and wall-clock time.
// It is used when probing live services. Its zero value is ready to use.
type RealRuntime struct {
	Real
}

var _ Runtime = RealRuntime{}

// Go starts f on a new goroutine.
func (RealRuntime) Go(f func()) { go f() }

// NewGroup returns a Group backed by a sync.WaitGroup.
func (RealRuntime) NewGroup() Group { return &wgGroup{} }

type wgGroup struct{ wg sync.WaitGroup }

func (g *wgGroup) Go(f func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		f()
	}()
}

func (g *wgGroup) Join() { g.wg.Wait() }
