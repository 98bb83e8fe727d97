package streaming

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/proto"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// flushRecorder is a ResponseWriter that records what the stored-stream
// loop hands the connection and when it flushes. A Write whose bytes are
// the next k wire images of packets, back to back — one image, or a run
// (asf.Run) — counts as those k packets; the header is bytes only.
type flushRecorder struct {
	mu        sync.Mutex
	header    http.Header
	packets   []*asf.Shared // what the session is expected to write, in order
	next      int           // packets written so far
	unflushed int           // bytes written since the last Flush
	pending   int           // packets written since the last Flush
	batches   []int         // packets each Flush put on the wire
}

func newFlushRecorder(packets []*asf.Shared) *flushRecorder {
	return &flushRecorder{header: make(http.Header), packets: packets}
}

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}

func (f *flushRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k, rest := 0, p
	for len(rest) > 0 && f.next+k < len(f.packets) && bytes.HasPrefix(rest, f.packets[f.next+k].Wire()) {
		rest = rest[len(f.packets[f.next+k].Wire()):]
		k++
	}
	if len(rest) == 0 {
		f.next += k
		f.pending += k
	}
	f.unflushed += len(p)
	return len(p), nil
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, f.pending)
	f.unflushed, f.pending = 0, 0
}

// state returns the packets written, the bytes not yet flushed, and the
// packets per explicit flush so far.
func (f *flushRecorder) state() (written, unflushed int, batches []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next, f.unflushed, append([]int(nil), f.batches...)
}

// vodSession runs one /vod/{name} request against the recorder on its own
// goroutine; done closes when the handler returns.
func vodSession(ctx context.Context, srv *Server, name string, rec *flushRecorder) (done chan struct{}) {
	req := httptest.NewRequest(http.MethodGet, "/v1/vod/"+name, nil).WithContext(ctx)
	done = make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	return done
}

// awaitParked blocks until the session is parked in pacer.SleepUntil —
// its slot's timer is registered with the virtual clock — and reports
// true, or reports false once the handler has returned. The handler touches
// the recorder only before it asks the wheel for a slot, so what state
// returns after a true is what the session slept on.
func awaitParked(t *testing.T, clk *vclock.Virtual, done <-chan struct{}) bool {
	t.Helper()
	parked := false
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		select {
		case <-done:
			return true
		default:
		}
		parked = clk.PendingWaiters() > 0
		return parked
	}, "session neither parked on the pacer nor finished")
	return parked
}

// scheduledAsset registers a stored container whose packets carry the
// given send times (a millisecond grid, so the wheel's rounding never
// merges two of them).
func scheduledAsset(t *testing.T, srv *Server, sendAt ...time.Duration) *Asset {
	t.Helper()
	var buf bytes.Buffer
	w, err := asf.NewWriter(&buf, asf.Header{Title: "schedule"})
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range sendAt {
		p := videoPacket(at, i == 0, 200)
		if _, err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := srv.RegisterAsset("sched", asf.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

const ms = time.Millisecond

// TestVODFlushFollowsSchedule drives a paced session on a virtual clock
// and holds the write loop to its contract: header and first packet go
// out at once, nothing is ever slept on unflushed, and an on-schedule
// session makes one flush per send instant.
func TestVODFlushFollowsSchedule(t *testing.T) {
	clk := vclock.NewVirtual()
	srv := NewServer(clk)
	asset := scheduledAsset(t, srv, 0, 0, 0, 10*ms, 10*ms, 20*ms, 30*ms, 30*ms, 30*ms)
	rec := newFlushRecorder(asset.SharedPackets())
	done := vodSession(context.Background(), srv, "sched", rec)

	parks := 0
	for awaitParked(t, clk, done) {
		parks++
		written, unflushed, batches := rec.state()
		if unflushed != 0 {
			t.Fatalf("park %d: sleeping on %d unflushed bytes (%d packets written)", parks, unflushed, written)
		}
		if batches[0] != 1 {
			t.Fatalf("first flush carried %d packets, want the header and exactly the first", batches[0])
		}
		next, _ := clk.NextDeadline()
		clk.AdvanceTo(next)
	}
	written, _, batches := rec.state()
	if written != len(asset.SharedPackets()) {
		t.Fatalf("wrote %d of %d packets", written, len(asset.SharedPackets()))
	}
	// The first instant is split after its first packet (startup); the
	// last instant's packets are flushed by returning.
	if want := []int{1, 2, 2, 1}; !reflect.DeepEqual(batches, want) {
		t.Fatalf("packets per flush = %v, want %v", batches, want)
	}
	if parks != 3 {
		t.Fatalf("parked %d times, want once per later send instant (3)", parks)
	}
	if got := int(srv.inst.flushes.Value()); got != len(batches) {
		t.Fatalf("lod_response_flushes_total = %d, recorder saw %d", got, len(batches))
	}
}

// TestVODFlushBatchesWhenNotWaiting covers the sessions with nothing to
// wait for — unpaced, and paced but behind schedule: after the first
// packet they are written into the connection's buffers with no flush
// (the per-packet flush made 703 here).
func TestVODFlushBatchesWhenNotWaiting(t *testing.T) {
	data := encodeDSLAsset(t)

	t.Run("unpaced", func(t *testing.T) {
		srv := NewServer(nil)
		srv.Pacing = false
		asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		rec := newFlushRecorder(asset.SharedPackets())
		<-vodSession(context.Background(), srv, "lec", rec)
		written, _, batches := rec.state()
		if written != len(asset.SharedPackets()) || written < 700 {
			t.Fatalf("wrote %d of %d packets", written, len(asset.SharedPackets()))
		}
		if len(batches) > 3 {
			t.Fatalf("%d flushes for %d unpaced packets, want at most 3", len(batches), written)
		}
		if got := int(srv.inst.flushes.Value()); got != len(batches) {
			t.Fatalf("lod_response_flushes_total = %d, recorder saw %d", got, len(batches))
		}
	})

	t.Run("behind schedule", func(t *testing.T) {
		// The clock jumps an hour as the session first waits, so the
		// whole lecture is overdue when it wakes. (Parking the session
		// and then advancing an hour wakes it at its slot's instant,
		// and what it then sees depends on whether the Advance has
		// finished.)
		clk := &jumpClock{Virtual: vclock.NewVirtual()}
		srv := NewServer(clk)
		asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		rec := newFlushRecorder(asset.SharedPackets())
		var before []int
		clk.onJump = func() { _, _, before = rec.state() }
		<-vodSession(context.Background(), srv, "lec", rec)
		if clk.Now().Sub(vclock.Epoch) != time.Hour {
			t.Fatal("paced session never waited")
		}
		written, _, batches := rec.state()
		if written != len(asset.SharedPackets()) {
			t.Fatalf("wrote %d of %d packets", written, len(asset.SharedPackets()))
		}
		if len(batches) != len(before) {
			t.Fatalf("%d flushes while catching up, want none", len(batches)-len(before))
		}
	})
}

// TestVODCancelMidSleepLeavesNothingUnflushed: a client that goes away
// while the session waits for a send time has already been sent every
// byte the handler wrote, and the handler writes nothing more.
func TestVODCancelMidSleepLeavesNothingUnflushed(t *testing.T) {
	clk := vclock.NewVirtual()
	srv := NewServer(clk)
	asset := scheduledAsset(t, srv, 0, 0, 10*ms, 20*ms)
	rec := newFlushRecorder(asset.SharedPackets())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := vodSession(ctx, srv, "sched", rec)
	if !awaitParked(t, clk, done) {
		t.Fatal("paced session never waited")
	}
	cancel()
	<-done
	written, unflushed, _ := rec.state()
	if written != 2 || unflushed != 0 {
		t.Fatalf("after cancel: %d packets written, %d bytes unflushed; want 2 and 0", written, unflushed)
	}
	if got := srv.Stats(); got.ActiveClients != 0 || got.PacketsSent != 2 {
		t.Fatalf("stats after cancel = %+v", got)
	}
}

// TestVODPacingLagCoversSleptPackets: a packet the session slept for
// records its lateness, read on waking, as does each one found overdue
// behind it; with the wheel's 1 ms slots none is more than a grain late.
func TestVODPacingLagCoversSleptPackets(t *testing.T) {
	clk := vclock.NewVirtual()
	srv := NewServer(clk)
	// Off-grid send times wake on the next whole millisecond: the slept
	// packets are 0.6, 0.3 and 0 ms late, the one behind the first 0.6.
	const us = time.Microsecond
	asset := scheduledAsset(t, srv, 0, 10400*us, 10400*us, 20700*us, 30*ms)
	rec := newFlushRecorder(asset.SharedPackets())
	done := vodSession(context.Background(), srv, "sched", rec)
	for awaitParked(t, clk, done) {
		next, _ := clk.NextDeadline()
		clk.AdvanceTo(next)
	}
	if written, _, _ := rec.state(); written != len(asset.SharedPackets()) {
		t.Fatalf("wrote %d of %d packets", written, len(asset.SharedPackets()))
	}
	if got := srv.inst.packetsPaced.Value(); got != 3 {
		t.Fatalf("lod_packets_paced_total = %d, want 3", got)
	}
	lag := srv.inst.pacingLag
	if got := lag.Count(); got != 4 {
		t.Fatalf("lod_pacing_lag_seconds counted %d packets, want the 3 slept for and the 1 overdue", got)
	}
	if got, want := lag.Sum(), 1.5e-3; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("lod_pacing_lag_seconds sum = %v, want %v", got, want)
	}
	var text strings.Builder
	if err := srv.Metrics().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if line := `lod_pacing_lag_seconds_bucket{le="0.001"} 4`; !strings.Contains(text.String(), line) {
		t.Fatalf("a packet was more than one grain late; exposition lacks %q", line)
	}
}

// steppingClock is a virtual clock that moves on by step at every
// reading, so each packet a paced session looks at is later than the one
// before.
type steppingClock struct {
	*vclock.Virtual
	step time.Duration
}

func (c steppingClock) Now() time.Time { return c.Advance(c.step) }

// TestVODPacingLagCountsEveryOverduePacket: a lecture encoded with a lead
// longer than itself is due whole at its start, so on a clock that moves
// at every reading each packet after the first leaves overdue and records
// its lateness once, also when it goes out in a run behind another, and
// none is slept for.
func TestVODPacingLagCountsEveryOverduePacket(t *testing.T) {
	const dur = 20 * time.Second
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "overdue", Duration: dur, Profile: p, SlideCount: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{LeadTime: 2 * dur}, &buf); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(steppingClock{vclock.NewVirtual(), 100 * time.Microsecond})
	asset, err := srv.RegisterAsset("sched", asf.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	packets := asset.SharedPackets()
	for i, sp := range packets {
		if sp.SendAt() != 0 {
			t.Fatalf("packet %d is due at %v, want the whole lecture due at 0", i, sp.SendAt())
		}
	}
	rec := newFlushRecorder(packets)
	<-vodSession(context.Background(), srv, "sched", rec)
	if written, _, _ := rec.state(); written != len(packets) {
		t.Fatalf("wrote %d of %d packets", written, len(packets))
	}
	if got := srv.inst.packetsPaced.Value(); got != 0 {
		t.Fatalf("lod_packets_paced_total = %d, want 0: nothing was early", got)
	}
	lag := srv.inst.pacingLag
	if got, want := lag.Count(), int64(len(packets)-1); got != want {
		t.Fatalf("lod_pacing_lag_seconds counted %d packets, want every one after the first, %d", got, want)
	}
	if lag.Sum() <= 0 {
		t.Fatalf("lod_pacing_lag_seconds sum = %v for overdue packets", lag.Sum())
	}
}

// discardResponse is the cheapest ResponseWriter: what a session costs
// against it is the server's own work.
type discardResponse struct{ header http.Header }

func (d discardResponse) Header() http.Header         { return d.header }
func (d discardResponse) WriteHeader(int)             {}
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) Flush()                      {}

// TestVODSessionAllocsIndependentOfLength pins the per-session half of
// the zero-copy contract (an asf test pins the per-packet half, a shared
// wire image written with no allocation): what the server allocates to
// serve a stored lecture does not grow with the lecture's packet count.
// The header is encoded once per asset, so a session collects nothing as
// it goes.
func TestVODSessionAllocsIndependentOfLength(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	handler := srv.Handler()
	allocs := func(name string, dur time.Duration) (float64, int) {
		a, err := srv.RegisterAsset(name, asf.NewReader(bytes.NewReader(encodeTestAsset(t, dur))))
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, proto.Versioned(proto.StreamPath(proto.StreamVOD, name)), nil)
		w := discardResponse{header: make(http.Header)}
		return testing.AllocsPerRun(20, func() { handler.ServeHTTP(w, req) }), len(a.SharedPackets())
	}
	short, shortPkts := allocs("short", 2*time.Second)
	long, longPkts := allocs("long", 32*time.Second)
	if longPkts < 8*shortPkts {
		t.Fatalf("assets of %d and %d packets do not separate per-packet from per-session cost", shortPkts, longPkts)
	}
	if long > short+1 {
		t.Fatalf("a %d-packet session allocates %.0f times, a %d-packet one %.0f: the cost grows with length",
			longPkts, long, shortPkts, short)
	}
}

// TestVODSessionAllocsIndependentOfLengthOverHTTP is the same guard over
// the real transport: net/http serving on netsim.MemNet to a client that
// drains the body, both sides counted. A response of undeclared length
// is chunked there, and every chunk header past the first 2 KB of a
// chunk costs an allocation; a stored response declares its length, so
// 16× the lecture costs no more than a few allocations of noise.
func TestVODSessionAllocsIndependentOfLengthOverHTTP(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	client := serveOnMem(t, srv.Handler()).Client()
	defer client.CloseIdleConnections()

	allocs := func(name string, dur time.Duration) (float64, int64) {
		if _, err := srv.RegisterAsset(name, asf.NewReader(bytes.NewReader(encodeTestAsset(t, dur)))); err != nil {
			t.Fatal(err)
		}
		url := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamVOD, name))
		var n int64
		get := func() {
			resp, err := client.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			n, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d after %d bytes, %v", url, resp.StatusCode, n, err)
			}
		}
		get() // open the connection the measured sessions reuse
		return testing.AllocsPerRun(20, get), n
	}
	short, shortBytes := allocs("short", 2*time.Second)
	long, longBytes := allocs("long", 32*time.Second)
	// The difference is 64 and more 2 KB chunks: far above the bound.
	if longBytes-shortBytes < 128<<10 {
		t.Fatalf("responses of %d and %d bytes do not separate per-byte from per-session cost", shortBytes, longBytes)
	}
	if long > short+8 {
		t.Fatalf("a %d-byte session allocates %.0f times, a %d-byte one %.0f: the cost grows with length",
			longBytes, long, shortBytes, short)
	}
	t.Logf("%d-byte session: %.0f allocations; %d-byte: %.0f", shortBytes, short, longBytes, long)
}
