package vclock

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// at is an AfterFunc call that sends the clock's reading on the returned
// channel, a test's non-blocking view of a wait for instant t.
func at(v *Virtual, t time.Time) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.AfterFunc(t, func() { ch <- v.Now() })
	return ch
}

// awaitWaiters blocks until n waits are pending on v.
func awaitWaiters(t *testing.T, v *Virtual, n int) {
	t.Helper()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return v.PendingWaiters() == n }, "no %d waits pending", n)
}

func TestVirtualNowStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	got := v.Advance(3 * time.Second)
	want := Epoch.Add(3 * time.Second)
	if !got.Equal(want) {
		t.Fatalf("Advance returned %v, want %v", got, want)
	}
	if !v.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", v.Now(), want)
	}
}

func TestVirtualAfterFiresInOrder(t *testing.T) {
	v := NewVirtual()
	c2 := at(v, Epoch.Add(2*time.Second))
	c1 := at(v, Epoch.Add(1*time.Second))
	v.Advance(5 * time.Second)

	t1 := <-c1
	t2 := <-c2
	if !t1.Equal(Epoch.Add(1 * time.Second)) {
		t.Errorf("first waiter fired at %v, want %v", t1, Epoch.Add(time.Second))
	}
	if !t2.Equal(Epoch.Add(2 * time.Second)) {
		t.Errorf("second waiter fired at %v, want %v", t2, Epoch.Add(2*time.Second))
	}
}

// TestVirtualAfterNonPositiveFiresImmediately: a wait for an instant
// the clock has reached ends without an Advance — SleepUntil returns,
// and the AfterFunc call is made in its own goroutine.
func TestVirtualAfterNonPositiveFiresImmediately(t *testing.T) {
	v := NewVirtual()
	ctx := context.Background()
	for _, when := range []time.Time{Epoch, Epoch.Add(-time.Second)} {
		if !v.SleepUntil(ctx, when) {
			t.Fatalf("SleepUntil(%v) on a live context reported cancelled", when.Sub(Epoch))
		}
		select {
		case got := <-at(v, when):
			if !got.Equal(Epoch) {
				t.Fatalf("call for %v read %v, want %v", when.Sub(Epoch), got, Epoch)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("AfterFunc(%v) was not called without an Advance", when.Sub(Epoch))
		}
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after waits for reached instants", got)
	}
}

func TestVirtualAfterNotEarly(t *testing.T) {
	v := NewVirtual()
	ch := at(v, Epoch.Add(10*time.Second))
	v.Advance(9 * time.Second)
	if fired(ch) {
		t.Fatal("waiter fired before its deadline")
	}
	v.Advance(1 * time.Second)
	if !fired(ch) {
		t.Fatal("waiter did not fire at its deadline")
	}
}

func TestVirtualSleepWakesOnAdvance(t *testing.T) {
	v := NewVirtual()
	var wg sync.WaitGroup
	woke := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		v.SleepUntil(context.Background(), Epoch.Add(time.Second))
		close(woke)
	}()
	awaitWaiters(t, v, 1)
	v.Advance(time.Second)
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatal("SleepUntil did not wake after Advance")
	}
	wg.Wait()
}

func TestVirtualSleepUntil(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan bool, 1)
	go func() { done <- v.SleepUntil(ctx, Epoch.Add(time.Second)) }()
	awaitWaiters(t, v, 1)
	v.Advance(time.Second)
	if !<-done {
		t.Fatal("wait that elapsed on the clock reported cancelled")
	}

	go func() { done <- v.SleepUntil(ctx, v.Now().Add(time.Hour)) }()
	awaitWaiters(t, v, 1)
	cancel()
	if <-done {
		t.Fatal("cancelled wait reported elapsed")
	}
	if v.SleepUntil(ctx, v.Now()) {
		t.Fatal("wait for a reached instant on a cancelled context reported elapsed")
	}
}

// TestVirtualCancelledSleepLeavesNoWaiter: a SleepUntil whose context
// ends takes its wait off the clock, so a driver advancing to
// NextDeadline is not sent an hour ahead for a sleeper that is gone.
func TestVirtualCancelledSleepLeavesNoWaiter(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- v.SleepUntil(ctx, Epoch.Add(time.Hour)) }()
	awaitWaiters(t, v, 1)
	cancel()
	if <-done {
		t.Fatal("cancelled wait reported elapsed")
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after the only sleeper was cancelled, want 0", got)
	}
	if dl, ok := v.NextDeadline(); ok {
		t.Fatalf("NextDeadline = +%v, a deadline nothing waits for", dl.Sub(Epoch))
	}
}

func TestBackoffBounded(t *testing.T) {
	if d := Backoff(100*time.Millisecond, 1); d != 100*time.Millisecond {
		t.Fatalf("attempt 1 = %v", d)
	}
	if d := Backoff(100*time.Millisecond, 3); d != 400*time.Millisecond {
		t.Fatalf("attempt 3 = %v", d)
	}
	for _, n := range []int{6, 20, 63, 200} {
		if d := Backoff(100*time.Millisecond, n); d != maxBackoff {
			t.Fatalf("attempt %d = %v, want the %v cap", n, d, maxBackoff)
		}
	}
	if d := Backoff(50*time.Millisecond, 1); d != 50*time.Millisecond {
		t.Fatalf("client failover attempt 1 = %v, want 50ms", d)
	}
}

func TestVirtualNextDeadline(t *testing.T) {
	v := NewVirtual()
	if _, ok := v.NextDeadline(); ok {
		t.Fatal("NextDeadline reported a waiter on an empty clock")
	}
	at(v, Epoch.Add(5*time.Second))
	at(v, Epoch.Add(2*time.Second))
	dl, ok := v.NextDeadline()
	if !ok {
		t.Fatal("NextDeadline found no waiter")
	}
	if want := Epoch.Add(2 * time.Second); !dl.Equal(want) {
		t.Fatalf("NextDeadline = %v, want %v", dl, want)
	}
}

func TestVirtualAdvanceTo(t *testing.T) {
	v := NewVirtual()
	target := Epoch.Add(42 * time.Second)
	v.AdvanceTo(target)
	if !v.Now().Equal(target) {
		t.Fatalf("Now() = %v, want %v", v.Now(), target)
	}
	// Moving backwards is a no-op.
	v.AdvanceTo(Epoch)
	if !v.Now().Equal(target) {
		t.Fatalf("AdvanceTo backwards moved the clock to %v", v.Now())
	}
}

func TestVirtualSameDeadlineFIFO(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		v.AfterFunc(Epoch.Add(time.Second), func() { order = append(order, i) })
	}
	v.Advance(time.Second)
	// Both fire at the same instant, in registration order.
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("calls for one instant ran in order %v, want [0 1]", order)
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Minute)) {
		t.Fatal("Real.Now is implausibly far in the past")
	}
	ctx, cancel := context.WithCancel(context.Background())
	for _, ctx := range []context.Context{context.Background(), ctx} {
		start := time.Now()
		if !c.SleepUntil(ctx, start.Add(time.Millisecond)) {
			t.Fatal("Real.SleepUntil on a live context reported cancelled")
		}
		if time.Since(start) < time.Millisecond {
			t.Fatal("Real.SleepUntil returned too early")
		}
	}
	cancel()
	if c.SleepUntil(ctx, time.Now().Add(time.Hour)) {
		t.Fatal("Real.SleepUntil on a cancelled context reported elapsed")
	}
	fired := make(chan struct{})
	timer := c.AfterFunc(time.Now().Add(time.Hour), func() { close(fired) })
	if !timer.Reset(time.Now()) {
		t.Fatal("Reset of a pending call reported it was not pending")
	}
	<-fired
}

// TestVirtualAfterFuncFiresInDeadlineOrder: AfterFunc calls wait in one
// deadline order with every other wait, each made with Now reporting
// its own instant.
func TestVirtualAfterFuncFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual()
	var order []string
	late := at(v, Epoch.Add(3*time.Second))
	v.AfterFunc(Epoch.Add(2*time.Second), func() {
		if !fired(late) {
			order = append(order, "f2")
		}
		if got, want := v.Now(), Epoch.Add(2*time.Second); !got.Equal(want) {
			t.Errorf("Now inside the 2s call = %v, want %v", got, want)
		}
	})
	early := at(v, Epoch.Add(time.Second))
	v.AfterFunc(Epoch.Add(time.Second), func() {
		if fired(early) {
			order = append(order, "f1") // registered after early, so behind it
		}
	})
	v.Advance(5 * time.Second)
	if want := []string{"f1", "f2"}; len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("calls saw order %v, want %v", order, want)
	}
	if !fired(late) {
		t.Fatal("the 3s waiter did not fire")
	}
}

func TestVirtualAfterFuncCountedAndStopped(t *testing.T) {
	v := NewVirtual()
	calls := 0
	timer := v.AfterFunc(Epoch.Add(time.Second), func() { calls++ })
	at(v, Epoch.Add(5*time.Second))
	if got := v.PendingWaiters(); got != 2 {
		t.Fatalf("PendingWaiters = %d, want 2", got)
	}
	if dl, _ := v.NextDeadline(); !dl.Equal(Epoch.Add(time.Second)) {
		t.Fatalf("NextDeadline = %v, want the AfterFunc's 1s", dl)
	}
	if !timer.Stop() {
		t.Fatal("Stop on a pending call reported it was not pending")
	}
	if timer.Stop() {
		t.Fatal("second Stop reported the call still pending")
	}
	if got := v.PendingWaiters(); got != 1 {
		t.Fatalf("PendingWaiters after Stop = %d, want 1", got)
	}
	v.Advance(10 * time.Second)
	if calls != 0 {
		t.Fatalf("stopped call ran %d times", calls)
	}
}

func TestVirtualAfterFuncReset(t *testing.T) {
	v := NewVirtual()
	var at []time.Duration
	timer := v.AfterFunc(Epoch.Add(5*time.Second), func() { at = append(at, v.Now().Sub(Epoch)) })
	if !timer.Reset(Epoch.Add(2 * time.Second)) { // earlier
		t.Fatal("Reset of a pending call reported it was not pending")
	}
	if dl, _ := v.NextDeadline(); !dl.Equal(Epoch.Add(2 * time.Second)) {
		t.Fatalf("NextDeadline after moving earlier = %v", dl)
	}
	timer.Reset(Epoch.Add(4 * time.Second)) // later
	v.Advance(3 * time.Second)
	if len(at) != 0 {
		t.Fatalf("call ran at %v, before its moved 4s deadline", at)
	}
	v.Advance(time.Second)
	if timer.Reset(Epoch.Add(5 * time.Second)) { // re-arms a spent call
		t.Fatal("Reset of a spent call reported it pending")
	}
	v.Advance(time.Second)
	if want := []time.Duration{4 * time.Second, 5 * time.Second}; len(at) != 2 || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("call ran at %v, want %v", at, want)
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after every call ran", got)
	}
}

// TestVirtualResetToReachedInstant: a pending call re-armed for an
// instant the clock has reached leaves the heap and is made at once,
// without an Advance.
func TestVirtualResetToReachedInstant(t *testing.T) {
	v := NewVirtual()
	called := make(chan struct{})
	timer := v.AfterFunc(Epoch.Add(time.Hour), func() { close(called) })
	if !timer.Reset(Epoch) {
		t.Fatal("Reset of a pending call reported it was not pending")
	}
	select {
	case <-called:
	case <-time.After(5 * time.Second):
		t.Fatal("call re-armed for a reached instant was not made")
	}
	if got := v.PendingWaiters(); got != 0 {
		t.Fatalf("PendingWaiters = %d after the call was made", got)
	}
}

// TestVirtualAfterFuncReentrant: a call may use its own clock — Now,
// its Timer's Reset, a fresh AfterFunc — and what it schedules inside
// the window runs in the same Advance.
func TestVirtualAfterFuncReentrant(t *testing.T) {
	v := NewVirtual()
	var ticks, nested int
	var timer Timer
	timer = v.AfterFunc(Epoch.Add(time.Second), func() {
		ticks++
		if ticks < 3 {
			timer.Reset(v.Now().Add(time.Second))
		}
		v.AfterFunc(v.Now().Add(time.Duration(ticks)*time.Millisecond), func() { nested++ })
		_ = v.Now()
	})
	done := make(chan struct{})
	go func() {
		v.Advance(time.Minute)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Advance deadlocked on a call that uses its own clock")
	}
	if ticks != 3 || nested != 3 {
		t.Fatalf("ticks = %d, nested = %d; want 3 and 3", ticks, nested)
	}
	if got := v.Now(); !got.Equal(Epoch.Add(time.Minute)) {
		t.Fatalf("Now = %v after the Advance", got)
	}
}
