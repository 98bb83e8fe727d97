package player

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/encoder"
	"repro/internal/media"
	"repro/internal/vclock"
)

// driveClock advances the virtual clock until done closes.
func driveClock(t *testing.T, clk *vclock.Virtual, done <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-done:
			return
		default:
			if next, ok := clk.NextDeadline(); ok {
				clk.AdvanceTo(next)
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	t.Fatal("realtime playback did not finish")
}

func TestRealtimePlaybackPresentsOnSchedule(t *testing.T) {
	data, lec := testLectureBytes(t, 2*time.Second, encoder.Config{})
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
	if m.VideoFrames != len(lec.Video) {
		t.Fatalf("frames = %d, want %d", m.VideoFrames, len(lec.Video))
	}
	// With the whole file available instantly, every item is presented
	// exactly at its PTS: zero skew, zero stalls.
	if m.Stalls != 0 {
		t.Fatalf("stalls = %d on instant source", m.Stalls)
	}
	if m.MaxSkew != 0 {
		t.Fatalf("max skew = %v on instant source", m.MaxSkew)
	}
	// The playback took (virtual) real time: the clock advanced about the
	// lecture duration.
	if m.Duration < 1900*time.Millisecond {
		t.Fatalf("playback duration %v, want ≈2s", m.Duration)
	}
}

// slowReader releases its underlying bytes only after the virtual clock
// passes per-chunk release times, simulating a startved network feed.
type slowReader struct {
	data    []byte
	pos     int
	clk     *vclock.Virtual
	chunk   int
	perWait time.Duration
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, errEOF{}
	}
	// Every chunk boundary costs one wait on the clock.
	if s.pos > 0 && s.pos%s.chunk < len(p) {
		s.clk.SleepUntil(context.Background(), s.clk.Now().Add(s.perWait))
	}
	n := copy(p, s.data[s.pos:])
	if n > s.chunk {
		n = s.chunk
	}
	s.pos += n
	return n, nil
}

type errEOF struct{}

func (errEOF) Error() string { return "EOF" }

// TestAnchorToFirstPacketPlaysSeekTails plays a stream whose first
// packet sits deep in the presentation (a seeked VOD tail or a live
// catch-up join). Un-anchored realtime playback waits out the absolute
// PTS of the first item — the whole skipped prefix — before presenting
// anything; anchored playback re-bases the schedule at the first packet
// and plays only the remaining material, cleanly.
func TestAnchorToFirstPacketPlaysSeekTails(t *testing.T) {
	data, _ := testLectureBytes(t, 2*time.Second, encoder.Config{})
	h, packets, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the container from the midpoint on, like /vod/x?start=1s,
	// without the header's scripts.
	const seek = time.Second
	h.Scripts = nil
	var tail bytes.Buffer
	w, err := asf.NewWriter(&tail, h)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, p := range packets {
		if p.PTS >= seek {
			if _, err := w.WritePacket(p); err != nil {
				t.Fatal(err)
			}
			kept++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if kept == 0 {
		t.Fatal("no tail packets")
	}

	play := func(anchor bool) *Metrics {
		clk := vclock.NewVirtual()
		pl := New(Options{Realtime: true, AnchorToFirstPacket: anchor, Clock: clk})
		done := make(chan struct{})
		var m *Metrics
		var perr error
		go func() {
			defer close(done)
			m, perr = pl.Play(bytes.NewReader(tail.Bytes()))
		}()
		driveClock(t, clk, done)
		if perr != nil {
			t.Fatal(perr)
		}
		return m
	}

	plain := play(false)
	if plain.Duration < 1900*time.Millisecond {
		t.Fatalf("un-anchored tail playback took %v, expected to wait out the skipped prefix (≈2s)", plain.Duration)
	}
	anchored := play(true)
	if anchored.Duration > 1200*time.Millisecond {
		t.Fatalf("anchored tail playback took %v, want ≈1s (tail only)", anchored.Duration)
	}
	if anchored.Stalls != 0 {
		t.Fatalf("anchored playback stalled %d times (stall time %v)", anchored.Stalls, anchored.StallTime)
	}
	if anchored.MaxSkew != 0 {
		t.Fatalf("anchored max skew = %v, want 0 on an instant source", anchored.MaxSkew)
	}
	if anchored.VideoFrames != plain.VideoFrames {
		t.Fatalf("anchored presented %d frames, un-anchored %d", anchored.VideoFrames, plain.VideoFrames)
	}
}

func TestRealtimePlaybackCountsStallsOnStarvedSource(t *testing.T) {
	data, _ := testLectureBytes(t, 2*time.Second, encoder.Config{})
	clk := vclock.NewVirtual()
	pl := New(Options{Realtime: true, Clock: clk})

	// Release the stream so slowly that items arrive after their PTS.
	src := &slowReader{
		data: data, clk: clk,
		chunk:   len(data) / 8,
		perWait: 600 * time.Millisecond, // 8 chunks × 600 ms ≫ 2 s lecture
	}
	done := make(chan struct{})
	var m *Metrics
	go func() {
		defer close(done)
		m, _ = pl.Play(src)
	}()
	driveClock(t, clk, done)
	if m == nil {
		t.Fatal("no metrics")
	}
	if m.Stalls == 0 {
		t.Fatal("starved source produced no stalls")
	}
	if m.StallTime == 0 {
		t.Fatal("stall time not accumulated")
	}
}

// countingClock counts its readings. Each reading moves it on by step,
// and SleepUntil moves it on to the instant without blocking, so a
// realtime play runs on the caller's goroutine.
type countingClock struct {
	*vclock.Virtual
	step  time.Duration
	reads int
}

func (c *countingClock) Now() time.Time { c.reads++; return c.Advance(c.step) }
func (c *countingClock) SleepUntil(_ context.Context, t time.Time) bool {
	c.AdvanceTo(t)
	return true
}

// readLog hands its data out at most chunk bytes a Read, counts the
// Reads, and records the offset each Read that delivered ended at.
type readLog struct {
	data  []byte
	chunk int
	reads int
	ends  []int
}

func (l *readLog) Read(p []byte) (int, error) {
	l.reads++
	off := 0
	if len(l.ends) > 0 {
		off = l.ends[len(l.ends)-1]
	}
	if off == len(l.data) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), l.chunk)], l.data[off:])
	l.ends = append(l.ends, off+n)
	return n, nil
}

// packetEnds returns the offset at which the header of data ends and
// the offset at which each packet ends, with the packets' kinds.
func packetEnds(t *testing.T, data []byte) (header int, ends []int, kinds []media.Kind) {
	t.Helper()
	r := asf.NewReader(bytes.NewReader(data))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	var sps []*asf.Shared
	for {
		sp, err := r.ReadShared()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sps = append(sps, sp)
	}
	off := len(data)
	for _, sp := range sps {
		off -= len(sp.Wire())
	}
	header = off
	for _, sp := range sps {
		off += len(sp.Wire())
		ends = append(ends, off)
		kinds = append(kinds, sp.Packet().Kind)
	}
	return header, ends, kinds
}

// An arrival-order play reads the clock once per source Read (and once
// for its duration), never per packet: each media event's At is the
// stamp of the Read that completed its packet, counted from the Read
// that completed the header, and every other event's At is a stamp too.
func TestArrivalOrderStampsEachRead(t *testing.T) {
	data, _ := testLectureBytes(t, 20*time.Second, encoder.Config{})
	const step = time.Millisecond
	clk := &countingClock{Virtual: vclock.NewVirtual(), step: step}
	src := &readLog{data: data, chunk: 977}
	m, err := New(Options{Clock: clk}).Play(src)
	if err != nil {
		t.Fatal(err)
	}
	if clk.reads > src.reads+1 {
		t.Fatalf("%d clock readings for %d source reads and %d events", clk.reads, src.reads, len(m.Events))
	}
	// Read k (from 0) returned at the (k+1)th reading: the At of what it
	// completed is its distance in reads from the header's.
	completedBy := func(off int) int { return sort.SearchInts(src.ends, off) }
	header, ends, kinds := packetEnds(t, data)
	var want []time.Duration
	for i, end := range ends {
		if kinds[i] == media.KindVideo || kinds[i] == media.KindAudio {
			want = append(want, time.Duration(completedBy(end)-completedBy(header))*step)
		}
	}
	var got []time.Duration
	last := time.Duration(len(src.ends)) * step
	for i, e := range m.Events {
		if e.At%step != 0 || e.At < 0 || e.At > last || (i > 0 && e.At < m.Events[i-1].At) {
			t.Fatalf("event %d (%s) at %v is not a read's stamp in order", i, e.Kind, e.At)
		}
		if e.Kind == EventVideoFrame || e.Kind == EventAudioBlock {
			got = append(got, e.At)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("media events at %v…, want %v…", got[:min(8, len(got))], want[:min(8, len(want))])
	}
	if m.SlidesShown == 0 {
		t.Fatal("no slide shown: the header scripts were not exercised")
	}
}

// Realtime playback reads the clock as it always has: once to start
// (twice when anchored), once per packet to see whether it is due and
// once to present it, once per header script and once for the duration.
func TestRealtimeClockReadings(t *testing.T) {
	data, _ := testLectureBytes(t, 10*time.Second, encoder.Config{})
	h, err := asf.NewReader(bytes.NewReader(data)).ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	_, ends, _ := packetEnds(t, data)
	for _, anchored := range []bool{false, true} {
		clk := &countingClock{Virtual: vclock.NewVirtual()}
		m, err := New(Options{Clock: clk, Realtime: true, AnchorToFirstPacket: anchored}).Play(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want := 2 + 2*len(ends) + len(h.Scripts)
		if anchored {
			want++
		}
		if m.Stalls != 0 || clk.reads != want {
			t.Fatalf("anchored=%v: %d clock readings and %d stalls, want %d and none", anchored, clk.reads, m.Stalls, want)
		}
	}
}

// Stamping the reads costs an arrival-order play no allocation: it
// allocates no more than a realtime play of the same lecture.
func TestArrivalStampsAllocateNothing(t *testing.T) {
	data, _ := testLectureBytes(t, 10*time.Second, encoder.Config{})
	allocs := func(opts Options) float64 {
		pl := New(opts)
		return testing.AllocsPerRun(5, func() {
			if _, err := pl.Play(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	realtime := allocs(Options{Clock: &countingClock{Virtual: vclock.NewVirtual()}, Realtime: true})
	if arrival := allocs(Options{}); arrival > realtime {
		t.Fatalf("an arrival-order play allocates %v times, a realtime one %v", arrival, realtime)
	}
}
