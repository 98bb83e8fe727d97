package edgecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForWaiters polls until the flight has an in-flight call for key
// (i.e. the leader is inside fn), so followers launched afterwards are
// guaranteed to attach rather than lead.
func waitForCall(t *testing.T, f *Flight, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		_, ok := f.calls[key]
		f.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no call in flight")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlightCoalescesWaiters(t *testing.T) {
	var f Flight
	var calls atomic.Int64
	gate := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, err := f.Do(context.Background(), "asset/lec-0", func() error {
			calls.Add(1)
			<-gate
			return nil
		})
		leaderDone <- err
	}()
	waitForCall(t, &f, "asset/lec-0")

	const followers = 16
	var wg sync.WaitGroup
	var shared atomic.Int64
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := f.Do(context.Background(), "asset/lec-0", func() error {
				calls.Add(1)
				return nil
			})
			if s {
				shared.Add(1)
			}
			errs <- err
		}()
	}
	// Let the followers reach the attach point, then release the leader.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v", err)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("follower err = %v", err)
		}
	}
	// Every follower that attached shares the single leader fetch; any
	// straggler that arrived after completion led its own call. Under
	// the gate + waitForCall choreography all should attach.
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := shared.Load(); got != followers {
		t.Fatalf("%d followers shared, want %d", got, followers)
	}
}

func TestFlightPropagatesFailure(t *testing.T) {
	var f Flight
	wantErr := errors.New("origin fetch failed")
	gate := make(chan struct{})

	go func() {
		f.Do(context.Background(), "k", func() error { <-gate; return wantErr })
	}()
	waitForCall(t, &f, "k")

	const followers = 8
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, err := f.Do(context.Background(), "k", func() error { return nil })
			errs <- err
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(gate)
	for i := 0; i < followers; i++ {
		if err := <-errs; !errors.Is(err, wantErr) {
			t.Fatalf("follower err = %v, want %v", err, wantErr)
		}
	}
}

func TestFlightFollowerCtxCancel(t *testing.T) {
	var f Flight
	gate := make(chan struct{})
	leaderErr := make(chan error, 1)

	go func() {
		_, err := f.Do(context.Background(), "k", func() error { <-gate; return nil })
		leaderErr <- err
	}()
	waitForCall(t, &f, "k")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shared, err := f.Do(ctx, "k", func() error {
		t.Error("cancelled follower ran fn")
		return nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: shared=%v err=%v, want shared ctx.Canceled", shared, err)
	}

	// The leader's fetch is unaffected by the follower bailing out.
	close(gate)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}

func TestFlightKeysIndependent(t *testing.T) {
	var f Flight
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("asset/lec-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Do(context.Background(), key, func() error { calls.Add(1); return nil })
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 4 {
		t.Fatalf("fn ran %d times, want 4 (one per key)", got)
	}
}

func TestFlightSequentialCallsEachRun(t *testing.T) {
	var f Flight
	var calls int
	for i := 0; i < 3; i++ {
		shared, err := f.Do(context.Background(), "k", func() error { calls++; return nil })
		if shared || err != nil {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
}

// Hammer the flight from many goroutines across overlapping keys; run
// with -race this shakes out locking mistakes in the attach/complete
// windows.
func TestFlightStress(t *testing.T) {
	var f Flight
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%5)
				if _, err := f.Do(context.Background(), key, func() error { return nil }); err != nil {
					t.Errorf("Do(%s) = %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
