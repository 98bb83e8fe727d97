package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/vclock"
)

// skipClock is a virtual clock that never blocks: SleepUntil moves its
// time forward to the instant and returns at once. The example's
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

func (c *skipClock) SleepUntil(ctx context.Context, t time.Time) bool {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
	return ctx.Err() == nil
}

// AfterFunc runs f at once in its own goroutine, as time.AfterFunc
// does for an instant already reached; Reset runs it again the same way.
func (*skipClock) AfterFunc(_ time.Time, f func()) vclock.Timer {
	t := instantTimer{f}
	t.Reset(time.Time{})
	return t
}

type instantTimer struct{ f func() }

func (t instantTimer) Reset(time.Time) bool { go t.f(); return false }
func (instantTimer) Stop() bool             { return false }
