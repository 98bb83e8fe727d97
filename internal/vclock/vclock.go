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
	// AfterFunc calls f once the clock's time is at or past d from now
	// and returns a Timer that can stop or re-arm the call. It holds no
	// goroutine while it waits.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call. Reset re-arms it for d from now and
// Stop cancels it; each reports whether the call was still pending, as
// *time.Timer's methods do.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
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

// AfterFunc implements Clock with time.AfterFunc: f runs in its own
// goroutine when the timer fires.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

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

// maxBackoff caps Backoff: a retrying node or client rejoins within
// human reaction time rather than minutes.
const maxBackoff = 2 * time.Second

// Backoff returns the delay before retry attempt n (1-based) of a loop
// backing off from base: bounded exponential, base·2^(n-1), capped at
// maxBackoff. Heartbeat registration and client failover both wait it
// out with SleepCtx.
func Backoff(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt-1)
	if d > maxBackoff || d <= 0 {
		return maxBackoff
	}
	return d
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

// waiter is one pending wait: an After channel to send on, or an
// AfterFunc call to make.
type waiter struct {
	at    time.Time
	ch    chan time.Time // After's channel; nil for an AfterFunc entry
	f     func()         // AfterFunc's call; nil for an After entry
	seq   int            // tiebreaker for deterministic ordering
	index int            // position in the heap; -1 once fired or stopped
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

// AfterFunc implements Clock. The call waits in the same deadline order
// as After's channels, so PendingWaiters and NextDeadline count it, and
// Advance makes it (see there). A non-positive d is due at the current
// instant: the next Advance or AdvanceTo makes the call, even a zero one.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	t := &virtualTimer{v: v, waiter: waiter{f: f, index: -1}}
	t.Reset(d)
	return t
}

// virtualTimer is an AfterFunc entry; its heap index lets Stop and Reset
// remove or move it in place.
type virtualTimer struct {
	v *Virtual
	waiter
}

// Reset implements Timer: the call is re-armed for d after the clock's
// current instant and queued behind every wait already due then.
func (t *virtualTimer) Reset(d time.Duration) bool {
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if d < 0 {
		d = 0
	}
	t.at = v.now.Add(d)
	v.seq++
	t.seq = v.seq
	if t.index >= 0 {
		heap.Fix(&v.waiters, t.index)
		return true
	}
	heap.Push(&v.waiters, &t.waiter)
	return false
}

// Stop implements Timer.
func (t *virtualTimer) Stop() bool {
	v := t.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.index < 0 {
		return false
	}
	heap.Remove(&v.waiters, t.index)
	return true
}

// Advance moves the clock forward by d, firing every waiter whose deadline
// falls inside the window in deadline order; while a waiter is being fired
// Now reports that waiter's deadline, so code running at wake-up observes a
// consistent instant. An AfterFunc call runs in the advancing goroutine
// with the clock unlocked, so it may call Now, AfterFunc or its own
// Timer's methods; what it schedules inside the window fires in this same
// Advance. It returns the new current time.
func (v *Virtual) Advance(d time.Duration) time.Time {
	v.mu.Lock()
	target := v.now.Add(d)
	for v.waiters.Len() > 0 && !v.waiters[0].at.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		v.now = w.at
		if w.f == nil {
			w.ch <- w.at
			continue
		}
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

// AdvanceTo moves the clock to instant t, firing what is due by then. A t
// before now is a no-op; t equal to now fires what is already due, so a
// driver advancing to NextDeadline always makes progress.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	d := t.Sub(v.now)
	v.mu.Unlock()
	if d >= 0 {
		v.Advance(d)
	}
}

// PendingWaiters reports how many After, Sleep and AfterFunc waits are
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
