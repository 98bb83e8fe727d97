package netsim

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/vclock"
)

// drain reads everything from r while advancing the virtual clock from
// another goroutine, returning the virtual time that elapsed.
func drain(t *testing.T, r io.Reader, clk *vclock.Virtual) time.Duration {
	t.Helper()
	start := clk.Now()
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, r)
		done <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return clk.Now().Sub(start)
		default:
			if next, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(next)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	t.Fatal("drain did not finish")
	return 0
}

func TestLinkReaderPacesToBandwidth(t *testing.T) {
	clk := vclock.NewVirtual()
	payload := bytes.Repeat([]byte{0xAB}, 8000) // 64 kbit
	link := &Link{BitsPerSecond: 64_000, Seed: 1}
	lr := NewLinkReader(bytes.NewReader(payload), link, clk)

	elapsed := drain(t, lr, clk)
	// 64 kbit over a 64 kbps link ≈ 1 s of serialization.
	if elapsed < 900*time.Millisecond || elapsed > 1100*time.Millisecond {
		t.Fatalf("shaped read took %v, want ≈1s", elapsed)
	}
}

// chunked caps every Read at n bytes so the link sees many packets.
type chunked struct {
	r io.Reader
	n int
}

func (c chunked) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func TestLinkReaderDeliversEverythingDespiteLoss(t *testing.T) {
	clk := vclock.NewVirtual()
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	lossy := &Link{BitsPerSecond: 256_000, Latency: 5 * time.Millisecond, LossRate: 0.3, Seed: 7}
	clean := &Link{BitsPerSecond: 256_000, Latency: 5 * time.Millisecond, Seed: 7}

	var got bytes.Buffer
	lr := NewLinkReader(chunked{io.TeeReader(bytes.NewReader(payload), &got), 256}, lossy, clk)
	lossyTime := drain(t, lr, clk)
	if got.Len() != len(payload) {
		t.Fatalf("lossy link delivered %d bytes, want %d", got.Len(), len(payload))
	}

	clk2 := vclock.NewVirtual()
	cleanTime := drain(t, NewLinkReader(chunked{bytes.NewReader(payload), 256}, clean, clk2), clk2)
	if lossyTime <= cleanTime {
		t.Fatalf("loss cost nothing: lossy %v vs clean %v", lossyTime, cleanTime)
	}
}

func TestLinkReaderTotalLossDoesNotHang(t *testing.T) {
	// An invalid always-lose link (bypassing Validate) must still
	// deliver after the retransmission cap instead of spinning forever.
	clk := vclock.NewVirtual()
	dead := &Link{BitsPerSecond: 1_000_000, Latency: time.Millisecond, LossRate: 1, Seed: 3}
	lr := NewLinkReader(chunked{bytes.NewReader(bytes.Repeat([]byte{1}, 1024)), 256}, dead, clk)
	done := make(chan struct{})
	var n int64
	go func() {
		defer close(done)
		n, _ = io.Copy(io.Discard, lr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-done:
			if n != 1024 {
				t.Fatalf("delivered %d bytes, want 1024", n)
			}
			return
		default:
			if next, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(next)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	t.Fatal("total-loss link hung the reader")
}

func TestLinkReaderNilLinkPassesThrough(t *testing.T) {
	lr := NewLinkReader(bytes.NewReader([]byte("abc")), nil, nil)
	out, err := io.ReadAll(lr)
	if err != nil || string(out) != "abc" {
		t.Fatalf("passthrough = %q, %v", out, err)
	}
}

func TestLinkClone(t *testing.T) {
	proto := &Link{BitsPerSecond: 1000, Latency: time.Millisecond, Jitter: time.Millisecond, LossRate: 0.1, Seed: 1}
	// Warm the prototype so it carries queue state a clone must not inherit.
	proto.Transmit(0, 10_000)

	c := proto.Clone(42)
	if c.BitsPerSecond != proto.BitsPerSecond || c.Latency != proto.Latency ||
		c.Jitter != proto.Jitter || c.LossRate != proto.LossRate {
		t.Fatalf("clone parameters differ: %+v vs %+v", c, proto)
	}
	if c.Seed != 42 {
		t.Fatalf("clone seed = %d, want 42", c.Seed)
	}
	// A fresh clone starts with an idle queue: its first packet departs
	// after exactly one serialization time, not behind the prototype's
	// backlog.
	d := c.Transmit(0, 125) // 1000 bits at 1000 bps = 1s
	if d.DepartedAt != time.Second {
		t.Fatalf("clone first departure %v, want 1s (idle queue)", d.DepartedAt)
	}
}

// A Read with a 64 KB buffer takes at most one segment off a shaped
// link, so the link delivers in its own pieces whatever the caller's
// buffer; an unshaped reader passes the whole buffer through.
func TestLinkReaderReadsOneSegment(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3C}, 4*linkSegment+100)
	reads := func(link *Link) []int {
		clk := vclock.NewVirtual()
		lr := NewLinkReader(bytes.NewReader(payload), link, clk)
		var sizes []int
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, 64<<10)
			for {
				n, err := lr.Read(buf)
				if n > 0 {
					sizes = append(sizes, n)
				}
				if err != nil {
					if err == io.EOF {
						err = nil
					}
					done <- err
					return
				}
			}
		}()
		for {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				return sizes
			default:
				if next, ok := clk.NextDeadline(); ok {
					clk.AdvanceTo(next)
				} else {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
	}
	shaped := reads(&Link{BitsPerSecond: 8_000_000, Latency: time.Millisecond, Seed: 1})
	if want := []int{linkSegment, linkSegment, linkSegment, linkSegment, 100}; !reflect.DeepEqual(shaped, want) {
		t.Fatalf("shaped reads of a 64 KB buffer returned %v, want %v", shaped, want)
	}
	if got := reads(nil); !reflect.DeepEqual(got, []int{64 << 10, 100}) {
		t.Fatalf("unshaped reads of a 64 KB buffer returned %v, want [65536 100]", got)
	}
}
