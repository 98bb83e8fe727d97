package streaming

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/proto"
)

// patternByte derives the payload fill byte for a sequence number, so a
// reader can verify a packet's bytes from its header alone.
func patternByte(seq uint32) byte { return byte(seq*31 + 7) }

// checkPattern verifies every payload byte matches the packet's seq.
func checkPattern(p asf.Packet) error {
	want := patternByte(p.Seq)
	for i, b := range p.Payload {
		if b != want {
			return fmt.Errorf("packet %d payload[%d] = %#x, want %#x", p.Seq, i, b, want)
		}
	}
	return nil
}

// TestChannelSharedBuffersImmutable drives the zero-copy fan-out under
// maximum contention and proves the shared buffers are never mutated
// after publish. One publisher REUSES a single payload buffer for every
// packet — legal, because NewShared copies — and scribbles garbage over
// it right after each Publish returns. Meanwhile subscribers attach at
// staggered points and verify that every packet they see (backlog
// replay and live) still carries the byte pattern its seq dictates.
// Run under -race this also catches any unsynchronized write to the
// shared wire image; the pattern check catches logical corruption the
// race detector can't see (a copy taken too late, a pooled buffer
// recycled too early).
func TestChannelSharedBuffersImmutable(t *testing.T) {
	const (
		packets     = 400
		payloadSize = 512
		subscribers = 16
	)
	h := asf.Header{
		Title:       "immutable",
		PacketAlign: 2048,
		Streams:     []asf.StreamProps{{ID: 1, Kind: media.KindVideo, BitsPerSecond: 256_000}},
	}
	ch, err := NewChannel("immutable", h)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, subscribers)

	// Subscribers join while the broadcast is running so each sees a
	// different backlog/live split; every packet must check out.
	var subWG sync.WaitGroup
	subscribe := func() {
		defer wg.Done()
		sub, err := ch.Subscribe()
		subWG.Done() // joined (or failed): unblock the publisher's stagger
		if err != nil {
			errc <- err
			return
		}
		defer sub.Close()
		for _, sp := range sub.Backlog {
			if err := checkPattern(sp.Packet()); err != nil {
				errc <- fmt.Errorf("backlog: %w", err)
				return
			}
		}
		for sp := range sub.C {
			if err := checkPattern(sp.Packet()); err != nil {
				errc <- fmt.Errorf("live: %w", err)
				return
			}
		}
	}

	payload := make([]byte, payloadSize) // ONE buffer reused across all publishes
	pub := func(seq uint32, flags uint8) {
		for i := range payload {
			payload[i] = patternByte(seq)
		}
		p := asf.Packet{
			Stream: 1, Kind: media.KindVideo, Flags: flags,
			PTS: time.Duration(seq) * time.Millisecond, Seq: seq, Payload: payload,
		}
		if err := ch.Publish(p); err != nil {
			t.Error(err)
			return
		}
		// The publisher owns its buffer again the moment Publish returns:
		// scribbling here must not be visible to any subscriber.
		for i := range payload {
			payload[i] = 0xFF
		}
	}

	joinEvery := packets / subscribers
	for seq := 0; seq < packets; seq++ {
		flags := uint8(0)
		if seq%20 == 0 {
			flags = asf.PacketKeyframe // periodic backlog resets
		}
		pub(uint32(seq), flags)
		if seq%joinEvery == 0 && seq/joinEvery < subscribers {
			wg.Add(1)
			subWG.Add(1)
			go subscribe()
			subWG.Wait() // ensure the join lands at this packet boundary
		}
	}
	ch.Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := ch.Published(); got != packets {
		t.Fatalf("published %d packets, want %d", got, packets)
	}
}

// TestMirroredRunsUnderConcurrentReaders: a mirror registers a lecture
// from the origin's fetch body, then eight viewers play it through
// /v1/vod at once — from the top, from a seek point, and resumed from a
// byte by Range — while an edge pulls it, every one of them writing runs
// of the same slab buffers. Every body is the origin's for the same
// request. Under -race this also catches a write to a shared buffer.
func TestMirroredRunsUnderConcurrentReaders(t *testing.T) {
	origin := NewServer(nil)
	origin.Pacing = false
	asset, err := origin.RegisterAsset("lec", asf.NewReader(bytes.NewReader(encodeDSLAsset(t))))
	if err != nil {
		t.Fatal(err)
	}
	mirror := NewServer(nil)
	mirror.Pacing = false
	mem := netsim.NewMemNet()
	defer mem.Close()
	for host, srv := range map[string]*Server{"origin.lod": origin, "mirror.lod": mirror} {
		ln, err := mem.Listen(host)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }() // returns when Close closes the listener
		defer hs.Close()
	}
	client := mem.Client()
	defer client.CloseIdleConnections()
	get := func(host string, stream proto.StreamKind, query string, h http.Header) ([]byte, error) {
		req, err := http.NewRequest(http.MethodGet, "http://"+host+proto.Versioned(proto.StreamPath(stream, "lec"))+query, nil)
		if err != nil {
			return nil, err
		}
		req.Header = h
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode/100 != 2 {
			err = fmt.Errorf("GET %s: status %d", req.URL, resp.StatusCode)
		}
		return body, err
	}
	pulled, err := get("origin.lod", proto.StreamFetch, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.RegisterAsset("lec", asf.NewReader(bytes.NewReader(pulled))); err != nil {
		t.Fatal(err)
	}

	type play struct {
		query string
		h     http.Header
	}
	resume := func(n int64) http.Header {
		return http.Header{"Range": {proto.FormatRange(n)}, "If-Range": {asset.etag[0]}}
	}
	plays := []play{
		{"", nil},
		{"?start=10s", nil},
		{"", resume(100_000)},
		{"?start=5s", resume(7)},
	}
	want := make([][]byte, len(plays))
	for i, p := range plays {
		if want[i], err = get("origin.lod", proto.StreamVOD, p.query, p.h); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(want[0], want[1]) || bytes.Equal(want[0], want[2]) {
		t.Fatal("the seek and the resume do not start where the whole body does")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := plays[i%len(plays)]
			body, err := get("mirror.lod", proto.StreamVOD, p.query, p.h)
			if err != nil || !bytes.Equal(body, want[i%len(plays)]) {
				t.Errorf("viewer %d (%q %v): %d bytes, %v; want the origin's %d bytes",
					i, p.query, p.h, len(body), err, len(want[i%len(plays)]))
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, err := get("mirror.lod", proto.StreamFetch, "", nil)
		if err != nil || !bytes.Equal(body, pulled) {
			t.Errorf("edge pull: %d bytes, %v; want the origin's %d bytes", len(body), err, len(pulled))
		}
	}()
	wg.Wait()
}
