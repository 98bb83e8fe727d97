package main

import (
	"time"

	"repro/internal/vclock"
)

// instantClock satisfies vclock.Clock but never blocks, so the example's
// broadcast completes immediately while exercising the paced code path.
type instantClock struct{}

var _ vclock.Clock = instantClock{}

func (instantClock) Now() time.Time { return time.Unix(0, 0) }

func (instantClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Unix(0, 0)
	return ch
}

func (instantClock) Sleep(time.Duration) {}

// AfterFunc runs f at once in its own goroutine, as a zero-length
// time.AfterFunc would; Reset runs it again the same way.
func (instantClock) AfterFunc(_ time.Duration, f func()) vclock.Timer {
	t := instantTimer{f}
	t.Reset(0)
	return t
}

type instantTimer struct{ f func() }

func (t instantTimer) Reset(time.Duration) bool { go t.f(); return false }
func (instantTimer) Stop() bool                 { return false }
