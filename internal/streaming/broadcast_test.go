package streaming

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// liveLecture encodes a modem-56k lecture for broadcast, sent one second
// ahead of its presentation times, and splits it into header and packets
// as an origin hands them to PublishPaced.
func liveLecture(t *testing.T, dur time.Duration, slides int) (asf.Header, []asf.Packet) {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "broadcast test", Duration: dur, Profile: p, SlideCount: slides, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{Live: true, LeadTime: time.Second}, &buf); err != nil {
		t.Fatal(err)
	}
	h, packets, _, err := asf.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return h, packets
}

// TestPublishPacedLectureReachesSubscriber broadcasts a recorded lecture
// on a virtual clock: a student attached before the first packet
// receives every packet the channel published, in the backlog or live.
func TestPublishPacedLectureReachesSubscriber(t *testing.T) {
	h, packets := liveLecture(t, 5*time.Second, 2)
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("live1", h)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Channel("live1"); !ok {
		t.Fatal("channel not registered")
	}
	sub, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	clk := vclock.NewVirtual()
	done := make(chan error, 1)
	go func() { done <- ch.PublishPaced(context.Background(), clk, packets) }()
	deadline := time.Now().Add(10 * time.Second)
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("PublishPaced: %v", err)
			}
			finished = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("broadcast did not finish")
			}
			if clk.PendingWaiters() > 0 {
				clk.Advance(500 * time.Millisecond)
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	ch.Close()

	var received int64
	for range sub.C {
		received++
	}
	if ch.Published() != int64(len(packets)) {
		t.Fatalf("published %d of %d packets", ch.Published(), len(packets))
	}
	if received != ch.Published() {
		t.Fatalf("subscriber received %d of %d packets", received, ch.Published())
	}
}

// TestPublishPacedCancelMidSleep stops a broadcast while the publisher
// waits on the clock for the next packet: cancellation wins over the
// pending sleep, and the rest of the lecture is never published.
func TestPublishPacedCancelMidSleep(t *testing.T) {
	h, packets := liveLecture(t, 60*time.Second, 2)
	ch, err := NewChannel("live2", h)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ch.PublishPaced(ctx, clk, packets) }()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return clk.PendingWaiters() > 0 },
		"publisher never waited on the clock")
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not interrupt the paced sleep")
	}
	if ch.Published() >= int64(len(packets)) {
		t.Fatalf("published all %d packets despite cancel", ch.Published())
	}
}

func TestCreateChannelDuplicate(t *testing.T) {
	srv := NewServer(nil)
	if _, err := srv.CreateChannel("dup", liveHeader(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateChannel("dup", liveHeader(t)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate channel: err = %v, want ErrDuplicate", err)
	}
}

// TestChannelFanOutDeliversLecture is the E12 fan-out: every packet of a
// 10 s lecture reaches each of several concurrently draining students.
// Its cost per delivery is BenchmarkChannelPublish.
func TestChannelFanOutDeliversLecture(t *testing.T) {
	h, packets := liveLecture(t, 10*time.Second, 2)
	for _, clients := range []int{1, 4} {
		ch, err := NewChannel("scale", h)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, clients)
		var wg sync.WaitGroup
		for i := range got {
			sub, err := ch.Subscribe()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int, s *Subscriber) {
				defer wg.Done()
				defer s.Close()
				for range s.C {
					got[i]++
				}
			}(i, sub)
		}
		for _, p := range packets {
			if err := ch.Publish(p); err != nil {
				t.Fatal(err)
			}
		}
		ch.Close()
		wg.Wait()
		for i, n := range got {
			if n != len(packets) {
				t.Errorf("%d clients: client %d received %d of %d packets", clients, i, n, len(packets))
			}
		}
		if ch.Dropped() != 0 {
			t.Errorf("%d clients: %d packets dropped", clients, ch.Dropped())
		}
	}
}
