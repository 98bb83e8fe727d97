package netsim

import (
	"math"
	"testing"
	"time"
)

func TestLinkValidate(t *testing.T) {
	good := Link{BitsPerSecond: 1000, Latency: time.Millisecond, Jitter: time.Millisecond, LossRate: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	bad := []Link{
		{BitsPerSecond: -1},
		{Latency: -time.Second},
		{Jitter: -time.Second},
		{LossRate: -0.1},
		{LossRate: 1.0},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad link %d accepted", i)
		}
	}
}

func TestZeroLinkIsTransparent(t *testing.T) {
	var l Link
	d := l.Transmit(5*time.Second, 1_000_000)
	if d.Lost || d.ArrivedAt != 5*time.Second || d.DepartedAt != 5*time.Second {
		t.Fatalf("zero link delivery = %+v", d)
	}
}

func TestSerializationDelay(t *testing.T) {
	l := Link{BitsPerSecond: 8000} // 1000 bytes/s
	d := l.Transmit(0, 500)
	if want := 500 * time.Millisecond; d.ArrivedAt != want {
		t.Fatalf("500B over 1kB/s arrived at %v, want %v", d.ArrivedAt, want)
	}
}

func TestQueueingBuildsUp(t *testing.T) {
	l := Link{BitsPerSecond: 8000} // 1000 bytes/s
	first := l.Transmit(0, 1000)   // occupies [0s, 1s]
	second := l.Transmit(0, 1000)  // must queue behind: [1s, 2s]
	if first.DepartedAt != time.Second {
		t.Fatalf("first departed at %v", first.DepartedAt)
	}
	if second.DepartedAt != 2*time.Second {
		t.Fatalf("second departed at %v, want 2s (queued)", second.DepartedAt)
	}
	// A later packet after the queue drains is not delayed.
	third := l.Transmit(10*time.Second, 8)
	if third.DepartedAt != 10*time.Second+8*time.Millisecond {
		t.Fatalf("third departed at %v", third.DepartedAt)
	}
}

func TestLatencyAdded(t *testing.T) {
	l := Link{Latency: 100 * time.Millisecond}
	d := l.Transmit(time.Second, 100)
	if d.ArrivedAt != time.Second+100*time.Millisecond {
		t.Fatalf("arrival %v", d.ArrivedAt)
	}
	if d.Transit() != 100*time.Millisecond {
		t.Fatalf("transit %v", d.Transit())
	}
}

func TestJitterBoundedAndDeterministic(t *testing.T) {
	l1 := Link{Jitter: 50 * time.Millisecond, Seed: 9}
	l2 := Link{Jitter: 50 * time.Millisecond, Seed: 9}
	for i := 0; i < 100; i++ {
		d1 := l1.Transmit(time.Duration(i)*time.Second, 100)
		d2 := l2.Transmit(time.Duration(i)*time.Second, 100)
		if d1.ArrivedAt != d2.ArrivedAt {
			t.Fatal("same seed produced different jitter")
		}
		j := d1.ArrivedAt - d1.SentAt
		if j < 0 || j >= 50*time.Millisecond {
			t.Fatalf("jitter %v outside [0,50ms)", j)
		}
	}
}

func TestLossRateApproximate(t *testing.T) {
	l := Link{LossRate: 0.2, Seed: 123}
	lost := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if l.Transmit(time.Duration(i)*time.Millisecond, 100).Lost {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-0.2) > 0.03 {
		t.Fatalf("observed loss %.3f, want ≈0.20", got)
	}
}

func TestResetRestoresDeterminism(t *testing.T) {
	l := Link{Jitter: 10 * time.Millisecond, LossRate: 0.3, Seed: 5}
	var first []Delivery
	for i := 0; i < 20; i++ {
		first = append(first, l.Transmit(time.Duration(i)*time.Second, 64))
	}
	l.Reset()
	for i := 0; i < 20; i++ {
		d := l.Transmit(time.Duration(i)*time.Second, 64)
		if d != first[i] {
			t.Fatalf("delivery %d differs after Reset", i)
		}
	}
}

func TestPresetsValid(t *testing.T) {
	for _, l := range []Link{LinkModem56k, LinkDSL, LinkLAN, LinkLossyWiFi} {
		if err := l.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
}
