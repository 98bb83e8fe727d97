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
