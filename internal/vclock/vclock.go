// Package vclock provides clock abstractions so that every simulation,
// scheduler, and pacing loop in the system can run against either the real
// wall clock or a deterministic virtual clock that advances only when told
// to. All time-dependent components in this repository accept a vclock.Clock
// rather than calling time.Now directly.
//
// Every wait is to an instant, never for a duration: a duration comes
// from an earlier reading, and a clock that moves before the wait
// begins would leave the sleeper past its instant. A wait for an
// instant the clock has already reached ends at once.
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
	// SleepUntil blocks until the clock reads t and reports true, or
	// reports false once ctx ends first.
	SleepUntil(ctx context.Context, t time.Time) bool
	// AfterFunc calls f once the clock reads t, in its own goroutine if
	// it already does, and returns a Timer that can stop or re-arm the
	// call. It holds no goroutine while it waits.
	AfterFunc(t time.Time, f func()) Timer
}

// Timer is a pending AfterFunc call. Reset re-arms it for instant t and
// Stop cancels it; each reports whether the call was still pending, as
// *time.Timer's methods do.
type Timer interface {
	Reset(t time.Time) bool
	Stop() bool
}

// Real is a Clock backed by the operating-system wall clock.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// SleepUntil implements Clock. A context that never ends (its Done is
// nil, as context.TODO's is) and a reached t need no timer.
func (Real) SleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if ctx.Done() == nil || d <= 0 {
		time.Sleep(d)
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return ctx.Err() == nil
	case <-ctx.Done():
		return false
	}
}

// AfterFunc implements Clock with time.AfterFunc.
func (Real) AfterFunc(t time.Time, f func()) Timer {
	return realTimer{time.AfterFunc(time.Until(t), f)}
}

// realTimer re-arms a *time.Timer for an instant.
type realTimer struct{ *time.Timer }

// Reset implements Timer.
func (t realTimer) Reset(at time.Time) bool { return t.Timer.Reset(time.Until(at)) }

// maxBackoff caps Backoff: a retrying node or client rejoins within
// human reaction time rather than minutes.
const maxBackoff = 2 * time.Second

// Backoff returns the delay before retry attempt n (1-based) of a loop
// backing off from base: bounded exponential, base·2^(n-1), capped at
// maxBackoff. Heartbeat registration and client failover both sleep
// until that long after their clock's current instant.
func Backoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt-1)
	if d > maxBackoff || d <= 0 {
		return maxBackoff
	}
	return d
}

// Virtual is a deterministic, manually advanced clock: Now stands still
// until Advance or AdvanceTo moves it, and waits end exactly at their
// instant in instant order (ties broken by registration order, so runs
// are reproducible). A wait for an instant already reached ends at once:
// SleepUntil returns, and AfterFunc or Reset makes its call in its own
// goroutine, so a clock that moved past a caller's reading strands no
// one. The zero value is not usable; construct with NewVirtual or
// NewVirtualAt. Virtual is safe for concurrent use, but the advancing
// side must be driven by the test or simulation.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int
}

var _ Clock = (*Virtual)(nil)

// waiter is one AfterFunc call, pending while it sits in the heap; its
// heap index lets Stop and Reset take it out.
type waiter struct {
	v     *Virtual
	at    time.Time
	f     func()
	seq   int // tiebreaker for deterministic ordering
	index int // position in the heap; -1 once made or stopped
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x interface{}) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
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

// SleepUntil implements Clock. The sleeper is an AfterFunc call that
// closes its channel; a sleep whose context ends stops the call and
// leaves no waiter behind.
func (v *Virtual) SleepUntil(ctx context.Context, t time.Time) bool {
	if !t.After(v.Now()) {
		return ctx.Err() == nil
	}
	woke := make(chan struct{})
	timer := v.AfterFunc(t, func() { close(woke) })
	select {
	case <-woke:
		return ctx.Err() == nil
	case <-ctx.Done():
		timer.Stop()
		return false
	}
}

// AfterFunc implements Clock. PendingWaiters and NextDeadline count the
// call, and Advance makes it (see there).
func (v *Virtual) AfterFunc(t time.Time, f func()) Timer {
	w := &waiter{v: v, f: f, index: -1}
	w.Reset(t)
	return w
}

// Reset implements Timer: the call is re-armed for t, queued behind
// every wait already registered for t, or made at once in its own
// goroutine when the clock has reached t.
func (w *waiter) Reset(t time.Time) bool {
	v := w.v
	v.mu.Lock()
	defer v.mu.Unlock()
	pending := w.index >= 0
	if pending {
		heap.Remove(&v.waiters, w.index)
	}
	if !t.After(v.now) {
		go w.f()
		return pending
	}
	v.seq++
	w.at, w.seq = t, v.seq
	heap.Push(&v.waiters, w)
	return pending
}

// Stop implements Timer.
func (w *waiter) Stop() bool {
	v := w.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if w.index < 0 {
		return false
	}
	heap.Remove(&v.waiters, w.index)
	return true
}

// Advance moves the clock forward by d, making every call whose instant
// falls inside the window in instant order; while a call is made Now
// reports its instant, so code running at wake-up observes a consistent
// instant. A call runs in the advancing goroutine with the clock
// unlocked, so it may call Now, AfterFunc or its own Timer's methods;
// what it schedules inside the window runs in this same Advance. It
// returns the new current time.
func (v *Virtual) Advance(d time.Duration) time.Time {
	v.mu.Lock()
	target := v.now.Add(d)
	for v.waiters.Len() > 0 && !v.waiters[0].at.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		v.now = w.at
		v.mu.Unlock()
		w.f()
		v.mu.Lock()
	}
	// Another goroutine's Advance may have run while a call did, and
	// moved the clock past target; it never goes back.
	if target.After(v.now) {
		v.now = target
	}
	now := v.now
	v.mu.Unlock()
	return now
}

// AdvanceTo moves the clock to instant t, making what is due by then. A
// t before now is a no-op.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	d := t.Sub(v.now)
	v.mu.Unlock()
	if d >= 0 {
		v.Advance(d)
	}
}

// PendingWaiters reports how many SleepUntil and AfterFunc waits are
// still pending.
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
