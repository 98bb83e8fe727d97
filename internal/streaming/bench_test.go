package streaming

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
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

// benchShared builds one pre-encoded keyframe video packet (~1 KiB
// payload), the shape the origin's live pump publishes in steady state.
func benchShared(b testing.TB) *asf.Shared {
	b.Helper()
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	sp, err := asf.NewShared(asf.Packet{
		Stream:  1,
		Kind:    media.KindVideo,
		Flags:   asf.PacketKeyframe,
		PTS:     time.Second,
		Dur:     66 * time.Millisecond,
		SendAt:  time.Second,
		Seq:     7,
		Payload: payload,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// BenchmarkChannelPublish measures the live fan-out hot path: one
// PublishShared against 1, 100, and 10000 attached subscribers, each
// drained by its own goroutine. The steady-state publish must not
// allocate — the shared buffer is handed out by pointer and the
// keyframe backlog reset reuses the slice's capacity — so allocs/op
// should report 0 regardless of subscriber count.
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
			sp := benchShared(b)
			// Warm the backlog slice so capacity reuse is in effect.
			if err := ch.PublishShared(sp); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.PublishShared(sp); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ch.Close()
			wg.Wait()
		})
	}
}

// TestChannelPublishSharedAllocFree pins the fan-out allocation
// contract: after warm-up, publishing a pre-encoded packet to 100
// subscribers performs zero heap allocations. A regression here (a
// per-subscriber copy, a backlog reallocation, a boxed send) is the
// first symptom of losing the zero-copy property, so it fails loudly
// rather than only showing up as a slow benchmark.
func TestChannelPublishSharedAllocFree(t *testing.T) {
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
	sp := benchShared(t)
	if err := ch.PublishShared(sp); err != nil { // warm-up: size the backlog
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := ch.PublishShared(sp); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("PublishShared allocates %.2f times per packet with %d subscribers; want 0", avg, subs)
	}
}

// TestChannelPublishAllocs pins the origin's half: Publish encodes into
// the channel's slab, so a packet costs only its share of a slab buffer
// and a header chunk — 61 of these packets fill a buffer, 64 a chunk —
// and the fan-out after it nothing.
func TestChannelPublishAllocs(t *testing.T) {
	ch, err := NewChannel("allocs", benchHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	for i := 0; i < 100; i++ {
		sub, err := ch.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range sub.C {
			}
		}()
	}
	p := benchShared(t).Packet()
	avg := testing.AllocsPerRun(200, func() {
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.1 {
		t.Fatalf("Publish allocates %.2f times per packet; want at most 0.1", avg)
	}
}

// TestParseAssetAllocs pins what registering a stored lecture costs: its
// packets are carved from the reader's slab, so the allocations are per
// asset — 64 KB slab buffers, header chunks, the reader's window, the
// asset's slices and seek map growing — not per packet.
func TestParseAssetAllocs(t *testing.T) {
	data := encodeDSLAsset(t)
	var packets int
	avg := testing.AllocsPerRun(10, func() {
		a, err := parseAsset("lec", asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		packets = len(a.SharedPackets())
	})
	if perPacket := avg / float64(packets); perPacket > 0.12 {
		t.Fatalf("parseAsset allocates %.3f times per packet (%.0f for %d packets); want at most 0.12", perPacket, avg, packets)
	}
}

// BenchmarkRegisterAsset measures building the benchmark of record's
// stored lecture from its container, the step every origin registration
// and edge mirror pull takes: per packet, the slab bytes the asset holds
// beyond its wire images (tail-B/asset), which is what carving from
// slabs adds to a resident asset's heap, and the process's minor page
// faults (faults/packet), which is what the slab's buffer size costs in
// fresh pages.
func BenchmarkRegisterAsset(b *testing.B) {
	data := encodeDSLAsset(b)
	var packets, tail int
	var before, after runtime.MemStats
	var ruBefore, ruAfter syscall.Rusage
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	runtime.ReadMemStats(&before)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruBefore) // cannot fail for RUSAGE_SELF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := asf.NewReader(bytes.NewReader(data))
		a, err := parseAsset("lec", r)
		if err != nil {
			b.Fatal(err)
		}
		packets, tail = len(a.SharedPackets()), r.SlabTail()
	}
	b.StopTimer()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruAfter)
	runtime.ReadMemStats(&after)
	all := float64(b.N) * float64(packets)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/all, "ns/packet")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/all, "allocs/packet")
	b.ReportMetric(float64(tail), "tail-B/asset")
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
