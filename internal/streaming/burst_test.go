package streaming

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/testutil"
)

// burstPackets builds n video packets of about 1 KB, the first a
// keyframe, with the wire images a viewer must receive for them.
func burstPackets(t testing.TB, n int) []*asf.Shared {
	t.Helper()
	out := make([]*asf.Shared, n)
	for i := range out {
		p := videoPacket(time.Duration(i)*40*time.Millisecond, i == 0, 1000)
		p.Seq = uint32(i)
		sp, err := asf.NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sp
	}
	return out
}

// serveOnMem serves h as host origin.lod on a fresh netsim.MemNet until
// the test ends.
func serveOnMem(t *testing.T, h http.Handler) *netsim.MemNet {
	t.Helper()
	mem, _ := serveCounted(t, h)
	return mem
}

// rawJoin sends a join request for the live channel name over a bare
// connection and reads nothing. A MemNet connection is a net.Pipe, which
// buffers nothing, so the handler is held in its first write — the
// header — until the test starts reading.
func rawJoin(t *testing.T, mem *netsim.MemNet, name string) net.Conn {
	t.Helper()
	conn, err := mem.DialContext(context.Background(), "tcp", "origin.lod:80")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	path := proto.Versioned(proto.StreamPath(proto.StreamLive, name))
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: origin.lod\r\n\r\n", path); err != nil {
		t.Fatal(err)
	}
	return conn
}

// readChunkedHead reads a live response's status line and headers off
// br and checks that its body is chunked.
func readChunkedHead(t *testing.T, br *bufio.Reader) {
	t.Helper()
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("live response: status %d, transfer encoding %v; want 200, chunked", resp.StatusCode, resp.TransferEncoding)
	}
}

// readChunk reads one chunk of a chunked body off br, framing included,
// into buf and returns its data; the terminating chunk returns nil. It
// allocates nothing, so an allocation count around it is the server's.
func readChunk(br *bufio.Reader, buf []byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	size := 0
	for _, c := range bytes.TrimRight(line, "\r\n") {
		switch {
		case '0' <= c && c <= '9':
			size = size<<4 | int(c-'0')
		case 'a' <= c && c <= 'f':
			size = size<<4 | int(c-'a'+10)
		default:
			return nil, fmt.Errorf("chunk size line %q", line)
		}
	}
	if size > len(buf) {
		return nil, fmt.Errorf("chunk of %d bytes, over %d", size, len(buf))
	}
	data := buf[:size]
	if _, err := io.ReadFull(br, data); err != nil {
		return nil, err
	}
	crlf, err := br.Peek(2)
	if err != nil {
		return nil, err
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return nil, fmt.Errorf("chunk ends in %q, not CRLF", crlf)
	}
	_, _ = br.Discard(2)
	if size == 0 {
		return nil, nil
	}
	return data, nil
}

// TestLiveBurstLeavesInFewChunksOverHTTP: 64 packets logged behind a
// viewer before its handler drains them leave as runs of the channel's
// slab — a few chunks, not one per 2 KB of net/http's response buffer —
// and the de-chunked body is the header followed by the 64 wire images,
// byte for byte.
func TestLiveBurstLeavesInFewChunksOverHTTP(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("burst", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	mem := serveOnMem(t, srv.Handler())
	conn := rawJoin(t, mem, "burst")
	testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() == 1 }, "the viewer never attached")
	packets := burstPackets(t, 64)
	for _, sp := range packets {
		if err := ch.Publish(sp.Packet()); err != nil {
			t.Fatal(err)
		}
	}
	want := bytes.Clone(ch.wireHeader)
	for _, sp := range packets {
		want = append(want, sp.Wire()...)
	}

	br := bufio.NewReader(conn)
	readChunkedHead(t, br)
	buf := make([]byte, 64<<10)
	var chunks [][]byte
	for n := 0; n < len(want); {
		data, err := readChunk(br, buf)
		if err != nil || data == nil {
			t.Fatalf("body ended after %d of %d bytes: %v", n, len(want), err)
		}
		chunks = append(chunks, append([]byte(nil), data...))
		n += len(data)
	}
	ch.Close()
	if data, err := readChunk(br, buf); err != nil || data != nil {
		t.Fatalf("after the burst: %d more bytes, %v; want the terminating chunk", len(data), err)
	}

	if !bytes.Equal(chunks[0], ch.wireHeader) {
		t.Fatalf("first chunk is %d bytes; want the %d-byte header alone", len(chunks[0]), len(ch.wireHeader))
	}
	sizes := make([]int, len(chunks)-1)
	for i, c := range chunks[1:] {
		sizes[i] = len(c)
	}
	if len(sizes) > 4 {
		t.Fatalf("a %d-byte burst left in %d chunks %v; want at most 4", len(want)-len(ch.wireHeader), len(sizes), sizes)
	}
	if err := check.Body(bytes.NewReader(bytes.Join(chunks, nil)), want); err != nil {
		t.Fatalf("de-chunked body against header + wire images: %v", err)
	}
	t.Logf("64 packets, %d bytes, in chunks of %v", len(want)-len(ch.wireHeader), sizes)
}

// gatedResponse holds its handler after every flush until the test lets
// it go, so the test decides what is queued when the next drain begins.
type gatedResponse struct {
	http.ResponseWriter
	gate chan struct{}
}

func (g gatedResponse) Flush() {
	g.ResponseWriter.(http.Flusher).Flush()
	<-g.gate
}

// TestLiveBurstAllocsOverHTTP pins what a warm 64-packet drain costs
// over the real transport, server and viewer counted: a few chunk
// headers for the whole burst, ≤ 0.1 allocations per packet. One chunk
// per 2 KB would cost about 0.5.
func TestLiveBurstAllocsOverHTTP(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("burst", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	live := srv.Handler()
	mem := serveOnMem(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.ServeHTTP(gatedResponse{ResponseWriter: w, gate: gate}, r)
	}))
	t.Cleanup(func() {
		close(gate) // let the handler see the end
		ch.Close()
	})
	br := bufio.NewReader(rawJoin(t, mem, "burst"))
	readChunkedHead(t, br)
	buf := make([]byte, 64<<10)
	if data, err := readChunk(br, buf); err != nil || !bytes.Equal(data, ch.wireHeader) {
		t.Fatalf("first chunk: %d bytes, %v; want the header", len(data), err)
	}

	packets := burstPackets(t, 64)
	burstBytes := 0
	for _, sp := range packets {
		burstBytes += len(sp.Wire())
	}
	drain := func() {
		// The first packet is a keyframe, so the channel's backlog
		// restarts each run and reuses its capacity.
		for _, sp := range packets {
			if err := ch.Publish(sp.Packet()); err != nil {
				t.Fatal(err)
			}
		}
		gate <- struct{}{} // the handler leaves its last flush and finds 64 queued
		for n := 0; n < burstBytes; {
			data, err := readChunk(br, buf)
			if err != nil || data == nil {
				t.Fatalf("burst ended after %d of %d bytes: %v", n, burstBytes, err)
			}
			n += len(data)
		}
	}
	perPacket := testing.AllocsPerRun(20, drain) / float64(len(packets))
	if perPacket > 0.1 {
		t.Fatalf("a warm 64-packet drain allocates %.2f times per packet; want ≤ 0.1", perPacket)
	}
	t.Logf("warm 64-packet drain: %.3f allocations per packet", perPacket)
}

// TestLiveBurstEnds: a broadcast that ends with packets still queued
// delivers them all first, and then ends the response the way the
// broadcast ended — a clean end as EOF, a broken one as an unexpected
// EOF, never a clean one.
func TestLiveBurstEnds(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*Channel)
		want error
	}{
		{"Close", (*Channel).Close, nil},
		{"CloseWithError", func(c *Channel) { c.CloseWithError(errors.New("upstream lost")) }, io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(nil)
			ch, err := srv.CreateChannel("end", liveHeader(t))
			if err != nil {
				t.Fatal(err)
			}
			mem := serveOnMem(t, srv.Handler())
			conn := rawJoin(t, mem, "end")
			testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() == 1 }, "the viewer never attached")
			packets := burstPackets(t, 64)
			for _, sp := range packets {
				if err := ch.Publish(sp.Packet()); err != nil {
					t.Fatal(err)
				}
			}
			tc.end(ch)

			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Clone(ch.wireHeader)
			for _, sp := range packets {
				want = append(want, sp.Wire()...)
			}
			got, err := io.ReadAll(resp.Body) // a clean end reads as a nil error
			if err := check.Body(bytes.NewReader(got), want); err != nil {
				t.Fatalf("viewer's body against the header and all 64 queued packets: %v", err)
			}
			if !errors.Is(err, tc.want) || (tc.want != nil && err == nil) {
				t.Fatalf("after the queued packets: %v; want %v", err, tc.want)
			}
		})
	}
}

// TestLiveLonePacketFlushedAtOnce: a packet on an idle channel is not
// held for company. It leaves at once as a chunk of its own, so a paced
// broadcast reaches its viewers packet by packet, as it is published.
func TestLiveLonePacketFlushedAtOnce(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("idle", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	mem := serveOnMem(t, srv.Handler())
	conn := rawJoin(t, mem, "idle")
	br := bufio.NewReader(conn)
	readChunkedHead(t, br)
	buf := make([]byte, 64<<10)
	if data, err := readChunk(br, buf); err != nil || !bytes.Equal(data, ch.wireHeader) {
		t.Fatalf("first chunk: %d bytes, %v; want the header", len(data), err)
	}
	for i, sp := range burstPackets(t, 3) {
		if err := ch.Publish(sp.Packet()); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		data, err := readChunk(br, buf)
		if err != nil {
			t.Fatalf("packet %d was not flushed on its own: %v", i, err)
		}
		if !bytes.Equal(data, sp.Wire()) {
			t.Fatalf("packet %d arrived as a %d-byte chunk; want its %d-byte wire image alone", i, len(data), len(sp.Wire()))
		}
	}
}

// TestFetchPullsOutnumberingWriters: many more mirror pulls at once than
// there are cores each arrive byte for byte, written run by run straight
// to their responses.
func TestFetchPullsOutnumberingWriters(t *testing.T) {
	srv := NewServer(nil)
	data := encodeTestAsset(t, 16*time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	want := storedBody(t, data, 0)
	if len(want) < 64<<10 {
		t.Fatalf("a %d-byte asset is one run; the pulls would not overlap", len(want))
	}
	mem := serveOnMem(t, srv.Handler())
	client := mem.Client()
	defer client.CloseIdleConnections()
	url := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamFetch, "lec"))

	// Every pull is open before any body is read. A handler is held in
	// its first write until its body is read, so all of them are
	// mid-write at once.
	const pulls = 80
	resps := make([]*http.Response, pulls)
	errs := make([]error, pulls)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = client.Get(url)
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		err := check.Body(resp.Body, want)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
}
