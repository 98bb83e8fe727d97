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
