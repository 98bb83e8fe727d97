package vclock

import (
	"context"
	"math"
	"sync"
	"time"
)

// DefaultGranularity is the slot width a Wheel rounds deadlines up to
// when the caller passes zero. One millisecond keeps pacing error well
// under the player's stall tolerance while collapsing thousands of
// per-session timers into a handful of slots.
const DefaultGranularity = time.Millisecond

// Wheel batches many sleepers onto shared slots: each instant is
// rounded up to the wheel's granularity and every sleeper landing in the
// same slot shares one broadcast channel. The wheel owns one clock timer
// (Clock.AfterFunc), armed for the instant of its earliest pending slot;
// the timer's call closes every slot the clock has reached and re-arms
// for the next. N paced sessions therefore cost one channel per active
// slot and one timer per wheel instead of a timer per packet per session.
//
// Slots still wake straight off the clock's timer rather than through a
// central scheduler goroutine: on a loaded box such a goroutine becomes
// a serialization point (every slot's lateness includes the scheduler's
// own wait for CPU), and that design was rejected for it. A pending slot
// costs its channel alone; an idle Wheel holds no goroutine, arms no
// timer and needs no Stop. A slot whose every sleeper was cancelled is
// idle too: the last to leave closes it and moves the timer on.
//
// Sleepers and the timer both wait for instants, never for durations
// from a reading, so a clock that moves between a caller's reading and
// its SleepUntil cannot strand it: a slot whose instant is already
// reached has its timer call made at once (Clock.AfterFunc's rule). A
// Wheel never wakes a sleeper early: SleepUntil(ctx, t) returns between
// t and t+granularity (plus wakeup latency), and a timer call that comes
// early closes nothing. A Wheel on a Virtual clock participates in the
// usual NextDeadline/AdvanceTo driver idiom through its underlying
// clock, where its timer is a single waiter and slots fire inside
// Advance.
type Wheel struct {
	clock Clock
	gran  time.Duration

	mu    sync.Mutex
	slots map[int64]slot // pending slot index → its channel and sleepers
	due   []int64        // min-heap of slot indices; a closed slot's may linger
	timer Timer          // nil until the first slot opens
	armed int64          // slot the timer is armed for; noSlot when none
}

// slot is one pending broadcast and how many sleepers wait on it.
type slot struct {
	ch       chan struct{}
	sleepers int
}

// noSlot marks an unarmed timer: every slot is earlier.
const noSlot = math.MaxInt64

// NewWheel builds a wheel over clock (nil means the real clock) with
// the given slot granularity (non-positive means DefaultGranularity).
func NewWheel(clock Clock, gran time.Duration) *Wheel {
	if clock == nil {
		clock = Real{}
	}
	if gran <= 0 {
		gran = DefaultGranularity
	}
	return &Wheel{clock: clock, gran: gran, slots: make(map[int64]slot), armed: noSlot}
}

// slotOf rounds an absolute instant up to its slot index.
func (w *Wheel) slotOf(t time.Time) int64 {
	g := int64(w.gran)
	n := t.UnixNano()
	return (n + g - 1) / g
}

// SleepUntil blocks until the wheel's clock reaches t, rounded up to the
// wheel's granularity, and reports true, or reports false once ctx ends
// first. A context that has already ended reports false at once and
// opens no slot; one that ends during the wait leaves its slot.
func (w *Wheel) SleepUntil(ctx context.Context, t time.Time) bool {
	if ctx.Err() != nil {
		return false
	}
	ch := w.after(t)
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		w.leave(w.slotOf(t), ch)
		return false
	}
}

// Sleep is SleepUntil for d past the clock's current instant, returning
// ctx's error.
func (w *Wheel) Sleep(ctx context.Context, d time.Duration) error {
	w.SleepUntil(ctx, w.clock.Now().Add(d))
	return ctx.Err()
}

// after joins the slot t rounds up to and returns its broadcast channel,
// opening the slot, and arming the timer when it is the earliest, if no
// sleeper holds it yet. The channel carries no value — closing is the
// broadcast.
func (w *Wheel) after(t time.Time) chan struct{} {
	i := w.slotOf(t)
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.slots[i]
	if !ok {
		s.ch = make(chan struct{})
		w.push(i)
		if i < w.armed {
			w.arm(i)
		}
	}
	s.sleepers++
	w.slots[i] = s
	return s.ch
}

// leave withdraws one sleeper from slot i, handed ch by after; the last
// to leave closes the slot unfired. A slot that fired meanwhile (and
// perhaps opened afresh, with another channel) is left alone.
func (w *Wheel) leave(i int64, ch chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.slots[i]
	if s.ch != ch {
		return
	}
	if s.sleepers--; s.sleepers > 0 {
		w.slots[i] = s
		return
	}
	delete(w.slots, i)
	w.rearm()
}

// arm sets the wheel's timer for slot's instant, creating the timer on
// the first call. The caller holds w.mu.
func (w *Wheel) arm(slot int64) {
	at := time.Unix(0, slot*int64(w.gran))
	if w.timer == nil {
		w.timer = w.clock.AfterFunc(at, w.fire)
	} else {
		w.timer.Reset(at)
	}
	w.armed = slot
}

// fire is the timer's call: it closes every slot whose instant the
// clock has reached, then re-arms for the earliest slot still pending.
// A slot leaves the table as it is closed, so a sleeper arriving for the
// same index afterwards starts a fresh (immediately due) slot instead of
// joining a spent broadcast. A call that finds nothing due — early, or
// left over from a Reset that raced it — closes nothing.
func (w *Wheel) fire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	reached := w.clock.Now().UnixNano()
	g := int64(w.gran)
	for len(w.due) > 0 && w.due[0]*g <= reached {
		i := w.pop()
		if ch := w.slots[i].ch; ch != nil {
			close(ch)
			delete(w.slots, i)
		}
	}
	w.rearm()
}

// rearm pops the heap's leading entries of slots that closed unfired,
// then arms the timer for the earliest open slot, or stops it when none
// is open. The caller holds w.mu.
func (w *Wheel) rearm() {
	for len(w.due) > 0 && w.slots[w.due[0]].ch == nil {
		w.pop()
	}
	if len(w.due) > 0 {
		w.arm(w.due[0])
		return
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	w.armed = noSlot
}

// push adds slot to the heap of pending slots. The caller holds w.mu.
func (w *Wheel) push(slot int64) {
	h := append(w.due, slot)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	w.due = h
}

// pop removes and returns the earliest pending slot. The caller holds
// w.mu and has checked the heap is not empty.
func (w *Wheel) pop() int64 {
	h := w.due
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	w.due = h
	return top
}

// PendingSlots reports how many distinct slots currently have sleepers,
// for tests and introspection.
func (w *Wheel) PendingSlots() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.slots)
}
