package player

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/encoder"
	"repro/internal/vclock"
)

// emptyChunks takes every chunk off the free list, so the next play
// starts from new ones.
func emptyChunks() {
	for {
		select {
		case <-idleChunks:
		default:
			return
		}
	}
}

// A play that follows another allocates its render log once, at its
// final size (40 B an event, one event a media packet), and takes its
// reader's window and its log's chunks from the play before. What is
// left per packet is that one slice and the session's fixed costs
// spread over its packets.
func TestPlayAllocatesLogOnce(t *testing.T) {
	data, _ := testLectureBytes(t, time.Minute, encoder.Config{})
	pl := New(Options{})
	if _, err := pl.Play(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := pl.Play(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	packets := m.VideoFrames + m.AudioBlocks
	perPacket := float64(after.TotalAlloc-before.TotalAlloc) / float64(packets)
	t.Logf("second play: %.1f B allocated per media packet (%d packets, %d events)", perPacket, packets, len(m.Events))
	if perPacket > 56 {
		t.Fatalf("second play allocated %.1f B per media packet, want ≤ 56", perPacket)
	}
	if len(m.Events) != cap(m.Events) {
		t.Fatalf("render log is %d events in a slice of %d", len(m.Events), cap(m.Events))
	}
}

// Plays that alternate realtime and arrival order, each on the chunks
// the other left, log exactly what the same play logs on new chunks: a
// reused chunk carries no stale event or Param into the next log.
func TestPlayReusedChunksLogTheSame(t *testing.T) {
	data, _ := testLectureBytes(t, 10*time.Second, encoder.Config{})
	realtime := func() []Event {
		clk := vclock.NewVirtual()
		pl := New(Options{Realtime: true, Clock: clk})
		done := make(chan struct{})
		var m *Metrics
		var err error
		go func() {
			defer close(done)
			m, err = pl.Play(bytes.NewReader(data))
		}()
		driveClock(t, clk, done)
		if err != nil {
			t.Fatal(err)
		}
		return m.Events
	}
	arrival := func() []Event {
		m, err := New(Options{Clock: vclock.NewVirtual()}).Play(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return m.Events
	}
	emptyChunks()
	wantRealtime := realtime()
	emptyChunks()
	wantArrival := arrival()
	if reflect.DeepEqual(wantRealtime, wantArrival) {
		t.Fatal("realtime and arrival-order logs are the same: the test cannot tell a stale event")
	}
	for i := 0; i < 2; i++ {
		if got := realtime(); !reflect.DeepEqual(got, wantRealtime) {
			t.Fatalf("round %d: realtime play on reused chunks logged differently", i)
		}
		if got := arrival(); !reflect.DeepEqual(got, wantArrival) {
			t.Fatalf("round %d: arrival-order play on reused chunks logged differently", i)
		}
	}
	for c, n := 0, len(idleChunks); c < n; c++ {
		if chunk := <-idleChunks; *chunk != ([eventChunk]Event{}) {
			t.Fatalf("listed chunk %d is not cleared", c)
		}
	}
}

// countingReader counts the Reads its source serves.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// BenchmarkPlay plays a 60 s modem-56k lecture in arrival order, the
// player's own cost with no transport: B/packet is what a session
// allocates per media packet once a play before it has listed its
// window and chunks, and reads/packet the source Reads per media packet
// (each one clock reading).
func BenchmarkPlay(b *testing.B) {
	data, _ := testLectureBytes(b, time.Minute, encoder.Config{})
	pl := New(Options{})
	m, err := pl.Play(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	packets := m.VideoFrames + m.AudioBlocks
	var before, after runtime.MemStats
	src := &countingReader{r: bytes.NewReader(data)}
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		src.r.(*bytes.Reader).Reset(data)
		if _, err := pl.Play(src); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*packets), "B/packet")
	b.ReportMetric(float64(src.reads)/float64(b.N*packets), "reads/packet")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packets), "ns/packet")
}

// finalSource is a source whose collection a test can observe.
type finalSource struct{ r *bytes.Reader }

func (s *finalSource) Read(p []byte) (int, error) { return s.r.Read(p) }

// The Metrics Play returns does not keep the source alive: a caller that
// holds on to it (a benchmark pass, a report) lets the source, and what
// it reads from, be collected, in both presentation modes.
func TestPlayLetsGoOfSource(t *testing.T) {
	data, _ := testLectureBytes(t, 5*time.Second, encoder.Config{})
	for _, realtime := range []bool{false, true} {
		collected := make(chan struct{})
		m := func() *Metrics {
			src := &finalSource{r: bytes.NewReader(data)}
			runtime.SetFinalizer(src, func(*finalSource) { close(collected) })
			m, err := New(Options{Realtime: realtime, Clock: &countingClock{Virtual: vclock.NewVirtual()}}).Play(src)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}()
		deadline := time.Now().Add(5 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-collected:
				done = true
			case <-time.After(10 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("realtime %v: the source was not collected while the Metrics was held", realtime)
				}
			}
		}
		runtime.KeepAlive(m)
	}
}
