// Package vclock provides clock abstractions so that every simulation,
// scheduler, and pacing loop in the system can run against either the real
// wall clock or a deterministic virtual clock that advances only when told
// to. All time-dependent components in this repository accept a vclock.Clock
// rather than calling time.Now directly.
//
// The usual test idiom is a driver loop: goroutines under test sleep on a
// Virtual clock while the test advances it to each next deadline —
//
//	for !done() {
//	    if next, ok := clk.NextDeadline(); ok {
//	        clk.AdvanceTo(next)
//	    }
//	}
//
// — so hours of simulated pacing run in microseconds and every interleaving
// is reproducible.
package vclock

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// Clock is the minimal clock interface used throughout the system.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
	// After returns a channel that delivers the clock's time once that time
	// is at or past d from now.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed on this clock.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the operating-system wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// SleepCtx waits for d on clock or until ctx is cancelled, reporting
// whether the full wait elapsed — the one cancellable wait every retry
// and backoff loop uses, so each rides whatever clock it was handed.
func SleepCtx(ctx context.Context, clock Clock, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	select {
	case <-clock.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// Virtual is a deterministic, manually advanced clock: Now stands still
// until Advance or AdvanceTo moves it, and sleepers wake exactly at their
// deadline in deadline order (ties broken by wait registration order, so
// runs are reproducible). The zero value is not usable; construct with
// NewVirtual or NewVirtualAt. Virtual is safe for concurrent use, but the
// advancing side must be driven by the test or simulation — a Sleep with
// no one advancing blocks forever.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int
}

var _ Clock = (*Virtual)(nil)

type waiter struct {
	at  time.Time
	ch  chan time.Time
	seq int // tiebreaker for deterministic ordering
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Epoch is the default start instant for virtual clocks: an arbitrary fixed
// point so that tests and benchmarks are reproducible.
var Epoch = time.Date(2002, time.July, 2, 9, 0, 0, 0, time.UTC)

// NewVirtual returns a Virtual clock starting at Epoch.
func NewVirtual() *Virtual { return NewVirtualAt(Epoch) }

// NewVirtualAt returns a Virtual clock starting at the given instant.
func NewVirtualAt(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock. The returned channel fires when Advance moves the
// clock to or past now+d. A non-positive d fires on the next Advance call
// (or immediately at the current time if d <= 0).
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	v.seq++
	heap.Push(&v.waiters, &waiter{at: v.now.Add(d), ch: ch, seq: v.seq})
	return ch
}

// Sleep implements Clock. Sleep on a Virtual clock blocks until another
// goroutine advances the clock far enough; callers coordinate via Advance.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// Advance moves the clock forward by d, firing every waiter whose deadline
// falls inside the window in deadline order; while a waiter is being fired
// Now reports that waiter's deadline, so code running at wake-up observes a
// consistent instant. It returns the new current time.
func (v *Virtual) Advance(d time.Duration) time.Time {
	v.mu.Lock()
	target := v.now.Add(d)
	for v.waiters.Len() > 0 && !v.waiters[0].at.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		v.now = w.at
		w.ch <- w.at
	}
	v.now = target
	v.mu.Unlock()
	return target
}

// AdvanceTo moves the clock to instant t (no-op if t is not after now).
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	d := t.Sub(v.now)
	v.mu.Unlock()
	if d > 0 {
		v.Advance(d)
	}
}

// PendingWaiters reports how many After/Sleep callers are still waiting.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.waiters.Len()
}

// NextDeadline returns the earliest pending waiter deadline and true, or the
// zero time and false when no waiters are pending. Simulation drivers use it
// to advance exactly to the next interesting instant.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.waiters.Len() == 0 {
		return time.Time{}, false
	}
	return v.waiters[0].at, true
}
