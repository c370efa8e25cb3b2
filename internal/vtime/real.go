package vtime

import "time"

// Real is a Clock backed by the standard time package. Its zero value is
// ready to use.
type Real struct{}

var _ Clock = Real{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// AfterFunc calls time.AfterFunc.
func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{t: time.AfterFunc(d, f)}
}

// Since returns time.Since(t).
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

type realTimer struct{ t *time.Timer }

func (r realTimer) Stop() bool { return r.t.Stop() }

func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }
