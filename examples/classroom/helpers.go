package main

import (
	"sync"
	"time"

	"repro/internal/vclock"
)

// skipClock is a virtual clock that never blocks: Sleep and After move
// its time forward by the wait and return at once. The example's
// broadcast and the degraded student's realtime player therefore finish
// immediately while running the paced code paths, and the student's
// stalls and skew are measured in the lecture's own time.
type skipClock struct {
	mu  sync.Mutex
	now time.Time
}

var _ vclock.Clock = (*skipClock)(nil)

func (c *skipClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *skipClock) After(d time.Duration) <-chan time.Time {
	c.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

func (c *skipClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(max(d, 0))
	c.mu.Unlock()
}

// AfterFunc runs f at once in its own goroutine, as a zero-length
// time.AfterFunc would; Reset runs it again the same way.
func (*skipClock) AfterFunc(_ time.Duration, f func()) vclock.Timer {
	t := instantTimer{f}
	t.Reset(0)
	return t
}

type instantTimer struct{ f func() }

func (t instantTimer) Reset(time.Duration) bool { go t.f(); return false }
func (instantTimer) Stop() bool                 { return false }
