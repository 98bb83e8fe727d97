package streaming

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/proto"
)

// benchHeader is a minimal valid live header for channel benchmarks.
func benchHeader() asf.Header {
	return asf.Header{
		Title:       "bench",
		PacketAlign: 2048,
		Streams: []asf.StreamProps{
			{ID: 1, Kind: media.KindVideo, BitsPerSecond: 256_000},
		},
	}
}

// benchPacket is one keyframe video packet (~1 KiB payload), the shape
// the origin's live pump publishes in steady state.
func benchPacket() asf.Packet {
	return asf.Packet{
		Stream:  1,
		Kind:    media.KindVideo,
		Flags:   asf.PacketKeyframe,
		PTS:     time.Second,
		Dur:     66 * time.Millisecond,
		SendAt:  time.Second,
		Seq:     7,
		Payload: bytes.Repeat([]byte{0xAB}, 1024),
	}
}

// BenchmarkChannelPublish measures the live fan-out hot path: one
// Publish against 1, 100, and 10000 attached subscribers, each drained
// by its own goroutine. A publish encodes the packet into the channel's
// slab once and logs it, whatever the subscriber count, so
// allocs/op is a share of a slab buffer and a header chunk (the
// subscribers pin the channel's buffers: none is reused) and does not
// grow with the subscribers.
func BenchmarkChannelPublish(b *testing.B) {
	for _, subs := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			ch, err := NewChannel("bench", benchHeader())
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				sub, err := ch.Subscribe()
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range sub.C {
					}
				}()
			}
			p := benchPacket()
			// Warm the backlog slice so capacity reuse is in effect.
			if err := ch.Publish(p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.Publish(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ch.Close()
			wg.Wait()
		})
	}
}

// BenchmarkAdmit times starting and ending a session against a set
// capacity (DESIGN.md's E15): the capacity check and booking under one
// lock, the asset pin, and the session gauges, from every P at once.
func BenchmarkAdmit(b *testing.B) {
	srv := NewServer(nil)
	srv.CapacityBps = 1 << 40
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := httptest.NewRecorder() // written only by a refusal
		for pb.Next() {
			_, end := srv.admit(w, srv.inst.vod, "lec", 48_000, time.Time{})
			if end == nil {
				b.Error("admit refused a session under capacity")
				return
			}
			end()
		}
	})
}

// TestChannelFanOutAllocFree pins the fan-out allocation contract:
// after warm-up, publishing a packet to 100 subscribers makes fewer heap
// allocations than packets — the packet is encoded once into the
// channel's slab, whose buffers and header chunks each take dozens of
// packets. A regression here (a per-subscriber copy,
// a log reallocation, a boxed send) is the first symptom of losing the
// zero-copy property, so it fails loudly rather than only showing up as
// a slow benchmark.
func TestChannelFanOutAllocFree(t *testing.T) {
	ch, err := NewChannel("allocs", benchHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	const subs = 100
	for i := 0; i < subs; i++ {
		sub, err := ch.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range sub.C {
			}
		}()
	}
	p := benchPacket()
	if err := ch.Publish(p); err != nil { // warm-up: size the backlog
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Publish allocates %.2f times per packet with %d subscribers; want 0", avg, subs)
	}
}

// TestParseAssetAllocs pins what registering a stored lecture costs: its
// packets are carved from the reader's slab, so the allocations are per
// asset — 64 KB slab buffers, header chunks, the reader's window, the
// asset's slices and seek map growing — not per packet.
func TestParseAssetAllocs(t *testing.T) {
	data := encodeDSLAsset(t)
	srv := NewServer(nil)
	var packets int
	avg := testing.AllocsPerRun(10, func() {
		a, err := srv.parseAsset("lec", asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		packets = len(a.SharedPackets())
	})
	if perPacket := avg / float64(packets); perPacket > 0.12 {
		t.Fatalf("parseAsset allocates %.3f times per packet (%.0f for %d packets); want at most 0.12", perPacket, avg, packets)
	}
}

// TestRecycledRegisterAllocsNoBuffer registers a lecture right after
// removing one of the same size, the edge's miss path once its cache is
// full: every 64 KB slab buffer the new copy is carved in must come off
// the free list. A fresh parse allocates one per buffer, so the recycled
// registration must allocate that many bytes less; the half buffer of
// slack absorbs what other goroutines allocate meanwhile, and one 64 KB
// buffer more would still exceed it.
func TestRecycledRegisterAllocsNoBuffer(t *testing.T) {
	data := encodeDSLAsset(t)
	srv := NewServer(nil)
	var fresh *Asset
	freshBytes := allocBytes(func() {
		var err error
		if fresh, err = srv.parseAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	reused := srv.inst.reused.Value()
	recycledBytes := allocBytes(func() {
		srv.RemoveAsset("lec")
		if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
			t.Fatal(err)
		}
	})
	bufs := len(fresh.bufs)
	if got, runs := srv.inst.reused.Value()-reused, allocRuns+1; got != int64(runs*bufs) {
		t.Errorf("%d registrations reused %d buffers, want all %d of each", runs, got, bufs)
	}
	if saved := freshBytes - recycledBytes; saved < float64(bufs*64<<10-32<<10) {
		t.Fatalf("a recycled registration allocates %.0f B, a fresh parse %.0f B: %.0f B less, want its %d buffers' %d B",
			recycledBytes, freshBytes, saved, bufs, bufs*64<<10)
	}
	t.Logf("%d buffers; fresh parse %.0f B, recycled registration %.0f B", bufs, freshBytes, recycledBytes)
}

// allocRuns is how many times allocBytes runs its function.
const allocRuns = 10

// allocBytes returns the bytes f allocates per run, over allocRuns runs
// after one to warm up.
func allocBytes(f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / allocRuns
}

// BenchmarkRegisterAsset measures building the benchmark of record's
// stored lecture from its container, the step every origin registration
// and edge mirror pull takes: per packet, its time, its allocations and
// bytes, and the process's minor page faults (faults/packet), which is
// what fresh slab buffers cost in fresh pages. The fresh case parses
// into new buffers; the recycled case removes the lecture and registers
// it again, carving the buffers the removal freed, as an edge's miss
// path does once its cache is full.
func BenchmarkRegisterAsset(b *testing.B) {
	data := encodeDSLAsset(b)
	register := func(srv *Server) (*Asset, error) {
		return srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	}
	b.Run("fresh", func(b *testing.B) {
		srv := NewServer(nil)
		benchRegister(b, len(data), func() (*Asset, error) {
			return srv.parseAsset("lec", asf.NewReader(bytes.NewReader(data)))
		})
	})
	b.Run("recycled", func(b *testing.B) {
		srv := NewServer(nil)
		if _, err := register(srv); err != nil {
			b.Fatal(err)
		}
		benchRegister(b, len(data), func() (*Asset, error) {
			srv.RemoveAsset("lec")
			return register(srv)
		})
	})
}

// benchRegister runs BenchmarkRegisterAsset's case: b.N registrations
// of a container of size bytes.
func benchRegister(b *testing.B, size int, register func() (*Asset, error)) {
	var packets int
	var before, after runtime.MemStats
	var ruBefore, ruAfter syscall.Rusage
	b.ReportAllocs()
	b.SetBytes(int64(size))
	runtime.ReadMemStats(&before)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruBefore) // cannot fail for RUSAGE_SELF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := register()
		if err != nil {
			b.Fatal(err)
		}
		packets = len(a.SharedPackets())
	}
	b.StopTimer()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruAfter)
	runtime.ReadMemStats(&after)
	all := float64(b.N) * float64(packets)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/all, "ns/packet")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/all, "allocs/packet")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/all, "B/packet")
	b.ReportMetric(float64(ruAfter.Minflt-ruBefore.Minflt)/all, "faults/packet")
}

// encodeDSLAsset encodes the benchmark of record's stored lecture:
// dsl-300k × 20 s, 703 packets.
func encodeDSLAsset(t testing.TB) []byte {
	t.Helper()
	p, err := codec.ByName("dsl-300k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "vod bench", Duration: 20 * time.Second, Profile: p, SlideCount: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countingListener counts the writes the server makes on the
// connections it accepts: on netsim.MemNet each is a rendezvous with the
// reader, on TCP a system call.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// serveCounted serves h on a MemNet host origin.lod behind a
// countingListener until the test ends.
func serveCounted(t testing.TB, h http.Handler) (*netsim.MemNet, *countingListener) {
	t.Helper()
	mem := netsim.NewMemNet()
	ln, err := mem.Listen("origin.lod")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(counted) }() // returns when Close closes the listener
	t.Cleanup(func() {
		hs.Close()
		mem.Close()
	})
	return mem, counted
}

// BenchmarkVODSession measures the stored-stream write path the way the
// benchmark of record drives it: one dsl-300k × 20 s lecture served over
// netsim.MemNet — every connection write a rendezvous with the reader —
// to a client that only drains the body. Pacing is off, so the measured
// cost is the write loop and the connection, not the play-out schedule;
// flushes/packet is the loop's batching (1 at a flush per packet),
// writes/packet the connection writes it comes to (1 at a write per
// packet), and allocs/packet counts both ends of the connection.
func BenchmarkVODSession(b *testing.B) {
	srv := NewServer(nil)
	srv.Pacing = false
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(encodeDSLAsset(b))))
	if err != nil {
		b.Fatal(err)
	}
	mem, counted := serveCounted(b, srv.Handler())
	client := mem.Client()
	defer client.CloseIdleConnections()
	url := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec"))

	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	writes := counted.writes.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || n != resp.ContentLength {
			b.Fatalf("VOD response: status %d, %d bytes of a declared %d", resp.StatusCode, n, resp.ContentLength)
		}
		b.SetBytes(n)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	packets := float64(b.N) * float64(len(asset.SharedPackets()))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/packets, "ns/packet")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/packets, "allocs/packet")
	b.ReportMetric(float64(srv.inst.flushes.Value())/packets, "flushes/packet")
	b.ReportMetric(float64(counted.writes.Load()-writes)/packets, "writes/packet")
}
