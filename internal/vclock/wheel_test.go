package vclock

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fired reports, without blocking, whether a wait's channel is ready. On
// a Virtual clock the wheel's timer call runs inside Advance, so a slot
// that is due has fired by the time Advance returns.
func fired[T any](ch <-chan T) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// epoch is the instant d past Epoch, where every test's virtual clock
// starts.
func epoch(d time.Duration) time.Time { return Epoch.Add(d) }

// TestWheelNonPositiveWaitFiresImmediately: a sleeper for an instant
// the clock has reached is woken by the timer call the clock makes at
// once, with no Advance.
func TestWheelNonPositiveWaitFiresImmediately(t *testing.T) {
	w := NewWheel(NewVirtual(), time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, d := range []time.Duration{0, -time.Second} {
		if !w.SleepUntil(ctx, epoch(d)) {
			t.Fatalf("SleepUntil(%v) was not woken without an Advance", d)
		}
	}
	if err := w.Sleep(ctx, 0); err != nil {
		t.Fatalf("Sleep(0) was not woken without an Advance: %v", err)
	}
}

// TestWheelClockJumpAfterReading: the clock jumps an hour right after
// the caller's reading. The sleeper's instant is then long reached, so
// it wakes with nobody advancing, and the timer is left armed for
// nothing.
func TestWheelClockJumpAfterReading(t *testing.T) {
	clk := &jumpClock{Virtual: NewVirtual(), jump: time.Hour}
	w := NewWheel(clk, time.Millisecond)
	woke := make(chan bool, 1)
	go func() { woke <- w.SleepUntil(context.Background(), clk.Now().Add(10*time.Millisecond)) }()
	select {
	case ok := <-woke:
		if !ok {
			t.Fatal("SleepUntil on a live context reported cancelled")
		}
	case <-time.After(5 * time.Second):
		dl, _ := clk.NextDeadline()
		t.Fatalf("sleeper still open with the clock at +%v; the wheel's timer is armed for +%v",
			clk.Virtual.Now().Sub(Epoch), dl.Sub(Epoch))
	}
	if got := w.PendingSlots() + clk.PendingWaiters(); got != 0 {
		t.Fatalf("%d slots or waiters left after the sleeper woke", got)
	}
}

// jumpClock is a Virtual clock that advances by jump right after its
// first reading: the clock moving between a caller's reading and its
// wait.
type jumpClock struct {
	*Virtual
	jump time.Duration
	once sync.Once
}

func (c *jumpClock) Now() time.Time {
	now := c.Virtual.Now()
	c.once.Do(func() { c.Virtual.Advance(c.jump) })
	return now
}

func TestWheelNeverFiresEarlyAndRoundsUp(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)

	// 2.5 ms rounds up to the 3 ms slot: not fired at 2 ms, nor at 2.999.
	ch := w.after(epoch(2500 * time.Microsecond))
	clk.Advance(2 * time.Millisecond)
	if fired(ch) {
		t.Fatal("fired before the deadline")
	}
	clk.Advance(999 * time.Microsecond)
	if fired(ch) {
		t.Fatal("fired before the rounded-up 3ms deadline")
	}
	clk.Advance(time.Microsecond)
	if !fired(ch) {
		t.Fatal("not fired at the rounded-up 3ms deadline")
	}
}

// TestWheelEarlyCallClosesNothing: a timer call that comes before the
// earliest slot is due — early, or left over from a racing Reset —
// closes no channel and leaves the timer armed for that slot.
func TestWheelEarlyCallClosesNothing(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	ch := w.after(epoch(2 * time.Millisecond))
	clk.Advance(time.Millisecond)
	w.fire()
	if fired(ch) {
		t.Fatal("an early timer call closed a slot")
	}
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters = %d after an early call, want the one re-armed timer", got)
	}
	clk.Advance(time.Millisecond)
	if !fired(ch) {
		t.Fatal("slot did not fire at its instant after an early call")
	}
}

func TestWheelSharesSlotChannels(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	// Same slot after rounding: one channel, one pending slot.
	a := w.after(epoch(400 * time.Microsecond))
	b := w.after(epoch(900 * time.Microsecond))
	if a != b {
		t.Fatal("sleepers in one slot got distinct channels")
	}
	if got := w.PendingSlots(); got != 1 {
		t.Fatalf("PendingSlots = %d, want 1", got)
	}
	c := w.after(epoch(5 * time.Millisecond))
	if c == a {
		t.Fatal("distinct slots share a channel")
	}
	if got := w.PendingSlots(); got != 2 {
		t.Fatalf("PendingSlots = %d, want 2", got)
	}
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters = %d, want the wheel's one timer", got)
	}
}

// TestWheelEarlierSlotPreemptsSleep: a far-future slot must not delay
// an earlier deadline that arrives while it pends — the timer moves to
// the earlier slot, then back.
func TestWheelEarlierSlotPreemptsSleep(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	far := w.after(epoch(time.Hour))
	near := w.after(epoch(2 * time.Millisecond))
	if dl, _ := clk.NextDeadline(); !dl.Equal(Epoch.Add(2 * time.Millisecond)) {
		t.Fatalf("timer armed for %v, want the near slot", dl.Sub(Epoch))
	}
	clk.Advance(2 * time.Millisecond)
	if !fired(near) {
		t.Fatal("near sleeper did not fire at its slot")
	}
	if fired(far) {
		t.Fatal("hour-long sleeper fired after milliseconds")
	}
	if dl, _ := clk.NextDeadline(); !dl.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("timer re-armed for %v, want the far slot", dl.Sub(Epoch))
	}
}

// TestWheelAdvancePastManySlots: one Advance across several slots fires
// each at its own instant, earliest first.
func TestWheelAdvancePastManySlots(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	var chans []<-chan struct{}
	for _, d := range []time.Duration{3, 1, 4, 2} {
		chans = append(chans, w.after(epoch(d*time.Millisecond)))
	}
	// Probes between the slots count what has fired so far.
	var seen []int
	for _, d := range []time.Duration{1500, 2500, 3500} {
		clk.AfterFunc(epoch(d*time.Microsecond), func() {
			n := 0
			for _, ch := range chans {
				if fired(ch) {
					n++
				}
			}
			seen = append(seen, n)
		})
	}
	clk.Advance(10 * time.Millisecond)
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Fatalf("slots fired by 1.5, 2.5 and 3.5 ms: %v, want [1 2 3]", seen)
	}
	for i, ch := range chans {
		if !fired(ch) {
			t.Fatalf("slot %d not fired after advancing past it", i)
		}
	}
}

func TestWheelSleepCancellation(t *testing.T) {
	w := NewWheel(NewVirtual(), time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- w.SleepUntil(ctx, epoch(time.Hour)) }()
	cancel()
	if <-done {
		t.Fatal("cancelled SleepUntil reported the instant reached")
	}
}

// TestWheelCancelledSleeperClosesItsSlot: the only sleeper of a slot an
// hour ahead is cancelled. Its slot closes and the timer stops, so
// NextDeadline does not report an hour nobody waits for. Under a slot
// another sleeper holds, the timer moves on to that slot.
func TestWheelCancelledSleeperClosesItsSlot(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	cancelSleeper(t, w, epoch(time.Hour))
	if got := w.PendingSlots(); got != 0 {
		t.Fatalf("PendingSlots = %d after the only sleeper was cancelled, want 0", got)
	}
	if at, ok := clk.NextDeadline(); ok {
		t.Fatalf("NextDeadline = %v after the only sleeper was cancelled, want none", at)
	}

	held := w.after(epoch(2 * time.Hour))
	cancelSleeper(t, w, epoch(time.Hour))
	if at, _ := clk.NextDeadline(); !at.Equal(epoch(2 * time.Hour)) {
		t.Fatalf("NextDeadline = %v, want the held slot's %v", at, epoch(2*time.Hour))
	}
	clk.AdvanceTo(epoch(2 * time.Hour))
	if !fired(held) || w.PendingSlots() != 0 {
		t.Fatalf("held slot fired %v, PendingSlots = %d; want fired and none left", fired(held), w.PendingSlots())
	}
}

// cancelSleeper puts one sleeper for at on w, cancels it once its slot
// is open, and waits for it to return.
func cancelSleeper(t *testing.T, w *Wheel, at time.Time) {
	t.Helper()
	before := w.PendingSlots()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- w.SleepUntil(ctx, at) }()
	for w.PendingSlots() == before {
		runtime.Gosched()
	}
	cancel()
	if <-done {
		t.Fatal("cancelled SleepUntil reported the instant reached")
	}
}

// TestWheelSleepCancelledOpensNoSlot: a session that is already gone
// gets its error back without a slot or a timer.
func TestWheelSleepCancelledOpensNoSlot(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if w.SleepUntil(ctx, epoch(time.Second)) {
		t.Fatal("SleepUntil on a cancelled context reported the instant reached")
	}
	if got := w.PendingSlots(); got != 0 {
		t.Fatalf("PendingSlots = %d, want 0", got)
	}
	if got := clk.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d, want 0", got)
	}
}

// TestWheelDrainsAndRestarts proves a fired slot leaves nothing behind —
// no slot, no armed timer — and fresh sleepers start fresh slots.
func TestWheelDrainsAndRestarts(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	for round := 0; round < 3; round++ {
		ch := w.after(clk.Now().Add(time.Millisecond))
		clk.Advance(time.Millisecond)
		if !fired(ch) {
			t.Fatalf("round %d: slot not fired", round)
		}
		if got := w.PendingSlots(); got != 0 {
			t.Fatalf("round %d: PendingSlots = %d", round, got)
		}
		if got := clk.PendingWaiters(); got != 0 {
			t.Fatalf("round %d: PendingWaiters = %d, an idle wheel armed its timer", round, got)
		}
	}
}

// TestWheelPendingSlotsHoldNoGoroutine: a thousand pending slots are a
// thousand channels behind one clock waiter, and no goroutine.
func TestWheelPendingSlotsHoldNoGoroutine(t *testing.T) {
	clk := NewVirtual()
	w := NewWheel(clk, time.Millisecond)
	before := runtime.NumGoroutine()
	chans := make([]<-chan struct{}, 1000)
	for i := range chans {
		// Latest first, so each new slot re-arms the timer earlier.
		chans[i] = w.after(epoch(time.Duration(len(chans)-i) * time.Millisecond))
	}
	if got := w.PendingSlots(); got != len(chans) {
		t.Fatalf("PendingSlots = %d, want %d", got, len(chans))
	}
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters = %d, want the wheel's one timer", got)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d pending slots added %d goroutines", len(chans), got-before)
	}
	clk.Advance(time.Second)
	for i, ch := range chans {
		if !fired(ch) {
			t.Fatalf("slot %d not fired", i)
		}
	}
	if got := w.PendingSlots() + clk.PendingWaiters(); got != 0 {
		t.Fatalf("%d slots or waiters left after every slot fired", got)
	}
}

// TestWheelAllocs pins the cost of a paced wait on the real clock: a
// SleepUntil that opens a slot allocates its channel and nothing else,
// and one that joins a pending slot allocates nothing.
func TestWheelAllocs(t *testing.T) {
	w := NewWheel(Real{}, time.Millisecond)
	ctx := context.Background()
	// Each SleepUntil finds the slot before it fired, so it opens its own.
	open := testing.AllocsPerRun(50, func() { w.SleepUntil(ctx, time.Now().Add(time.Millisecond)) })
	// after opens a slot and the SleepUntil right behind it joins it.
	openJoin := testing.AllocsPerRun(50, func() {
		due := time.Now().Add(2 * time.Millisecond)
		w.after(due)
		w.SleepUntil(ctx, due)
	})
	t.Logf("allocs per SleepUntil: %v opening a slot, %v opening one and joining it", open, openJoin)
	if open > 1 {
		t.Errorf("a SleepUntil that opens a slot allocates %v times, want at most 1", open)
	}
	if join := openJoin - open; join > 0 {
		t.Errorf("a SleepUntil that joins a pending slot allocates %v times, want 0", join)
	}
}

// TestWheelManyConcurrentSleepers hammers one wheel from many
// goroutines on the real clock — the production shape (thousands of
// paced sessions) in miniature, and the -race target for the wheel's
// internal locking.
func TestWheelManyConcurrentSleepers(t *testing.T) {
	w := NewWheel(Real{}, time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			d := time.Duration(n%8+1) * time.Millisecond
			if !w.SleepUntil(context.Background(), time.Now().Add(d)) {
				errs <- fmt.Errorf("sleeper %d: SleepUntil on a live context reported cancelled", n)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := w.PendingSlots(); got != 0 {
		t.Fatalf("PendingSlots = %d after all sleepers woke", got)
	}
}

// BenchmarkWheelSleep is many paced sessions on one real-clock wheel:
// sleepers of 1–4 ms, so each slot has several sleepers and several
// slots pend at once. allocs/op is what one paced wait costs.
func BenchmarkWheelSleep(b *testing.B) {
	w := NewWheel(Real{}, time.Millisecond)
	ctx := context.Background()
	var sleepers atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(32)
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(sleepers.Add(1)%4+1) * time.Millisecond
		for pb.Next() {
			if !w.SleepUntil(ctx, time.Now().Add(d)) {
				b.Error("SleepUntil on a live context reported cancelled")
				return
			}
		}
	})
}
