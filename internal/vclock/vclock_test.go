package vclock

import (
	"context"
	"sync"
	"testing"
	"time"
)

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
	c2 := v.After(2 * time.Second)
	c1 := v.After(1 * time.Second)
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

func TestVirtualAfterNonPositiveFiresImmediately(t *testing.T) {
	v := NewVirtual()
	select {
	case got := <-v.After(0):
		if !got.Equal(Epoch) {
			t.Fatalf("After(0) delivered %v, want %v", got, Epoch)
		}
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

func TestVirtualAfterNotEarly(t *testing.T) {
	v := NewVirtual()
	ch := v.After(10 * time.Second)
	v.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("waiter fired before its deadline")
	default:
	}
	v.Advance(1 * time.Second)
	select {
	case <-ch:
	default:
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
		v.Sleep(time.Second)
		close(woke)
	}()
	// Wait until the sleeper registered.
	for v.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatal("Sleep did not wake after Advance")
	}
	wg.Wait()
}

func TestSleepCtx(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if !SleepCtx(ctx, v, 0) {
		t.Fatal("zero wait on a live context reported cancelled")
	}

	done := make(chan bool, 1)
	go func() { done <- SleepCtx(ctx, v, time.Second) }()
	for v.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Advance(time.Second)
	if !<-done {
		t.Fatal("wait that elapsed on the clock reported cancelled")
	}

	go func() { done <- SleepCtx(ctx, v, time.Hour) }()
	for v.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if <-done {
		t.Fatal("cancelled wait reported elapsed")
	}
	if SleepCtx(ctx, v, 0) {
		t.Fatal("zero wait on a cancelled context reported elapsed")
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
	v.After(5 * time.Second)
	v.After(2 * time.Second)
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
	a := v.After(time.Second)
	b := v.After(time.Second)
	v.Advance(time.Second)
	// Both fire at the same instant; both channels must be ready.
	select {
	case <-a:
	default:
		t.Fatal("first waiter not fired")
	}
	select {
	case <-b:
	default:
		t.Fatal("second waiter not fired")
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Minute)) {
		t.Fatal("Real.Now is implausibly far in the past")
	}
	start := time.Now()
	c.Sleep(time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Fatal("Real.Sleep returned too early")
	}
}

// TestVirtualAfterFuncFiresInDeadlineOrder: AfterFunc calls wait in one
// deadline order with After's channels, each made with Now reporting
// its own instant.
func TestVirtualAfterFuncFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual()
	var order []string
	ready := func(ch <-chan time.Time) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	late := v.After(3 * time.Second)
	v.AfterFunc(2*time.Second, func() {
		if !ready(late) {
			order = append(order, "f2")
		}
		if got, want := v.Now(), Epoch.Add(2*time.Second); !got.Equal(want) {
			t.Errorf("Now inside the 2s call = %v, want %v", got, want)
		}
	})
	early := v.After(time.Second)
	v.AfterFunc(time.Second, func() {
		if ready(early) {
			order = append(order, "f1") // registered after early, so behind it
		}
	})
	v.Advance(5 * time.Second)
	if want := []string{"f1", "f2"}; len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("calls saw order %v, want %v", order, want)
	}
	if !ready(late) {
		t.Fatal("the 3s After waiter did not fire")
	}
}

func TestVirtualAfterFuncCountedAndStopped(t *testing.T) {
	v := NewVirtual()
	calls := 0
	timer := v.AfterFunc(time.Second, func() { calls++ })
	v.After(5 * time.Second)
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
	timer := v.AfterFunc(5*time.Second, func() { at = append(at, v.Now().Sub(Epoch)) })
	if !timer.Reset(2 * time.Second) { // earlier
		t.Fatal("Reset of a pending call reported it was not pending")
	}
	if dl, _ := v.NextDeadline(); !dl.Equal(Epoch.Add(2 * time.Second)) {
		t.Fatalf("NextDeadline after moving earlier = %v", dl)
	}
	timer.Reset(4 * time.Second) // later
	v.Advance(3 * time.Second)
	if len(at) != 0 {
		t.Fatalf("call ran at %v, before its moved 4s deadline", at)
	}
	v.Advance(time.Second)
	if timer.Reset(time.Second) { // re-arms a spent call
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

// TestVirtualAfterFuncReentrant: a call may use its own clock — Now,
// its Timer's Reset, a fresh AfterFunc — and what it schedules inside
// the window runs in the same Advance.
func TestVirtualAfterFuncReentrant(t *testing.T) {
	v := NewVirtual()
	var ticks, nested int
	var timer Timer
	timer = v.AfterFunc(time.Second, func() {
		ticks++
		if ticks < 3 {
			timer.Reset(time.Second)
		}
		v.AfterFunc(time.Duration(ticks)*time.Millisecond, func() { nested++ })
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
