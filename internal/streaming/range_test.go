package streaming

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/media"
	"repro/internal/proto"
)

// writerBytes is what an asf.Writer writes for the asset's packets from
// position from on: its header and their wire images.
func writerBytes(t *testing.T, a *Asset, from int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := asf.NewWriter(&buf, a.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range a.SharedPackets()[from:] {
		if err := w.WriteShared(sp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoredResponseIsExactRange: every stored response — a mirror
// fetch, a VOD session from the top or from any seek point, a group
// session — declares its length, arrives unchunked, and is byte for byte
// what an asf.Writer given the same packets writes. Under the asset's
// ETag, a VOD or group request for bytes=n- gets exactly that body's
// tail from byte n, wherever n falls; any other range, and any range of
// a mirror fetch, gets the whole body.
func TestStoredResponseIsExactRange(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(encodeSlidesAsset(t, 6*time.Second, 3))))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(asset.Header.Scripts); got < 3 {
		t.Fatalf("lecture has %d script commands, want a slide flip for each of 3 slides", got)
	}
	g, err := srv.CreateRateGroup("course")
	if err != nil {
		t.Fatal(err)
	}
	g.AddVariant(asset)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	vod := proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec"))
	seek := func(at time.Duration) string {
		return vod + "?" + proto.ParamStart + "=" + url.QueryEscape(at.String())
	}
	type request struct {
		path string
		from int // position in SharedPackets the body starts at
	}
	requests := []request{
		{proto.Versioned(proto.StreamPath(proto.StreamFetch, "lec")), 0},
		{proto.Versioned(proto.StreamPath(proto.StreamGroup, "course")), 0},
		{vod, 0},
		{seek(0), asset.SeekIndex(0)},
		{seek(99 * time.Hour), asset.SeekIndex(99 * time.Hour)},
	}
	seen := map[time.Duration]bool{}
	midGOP := false
	for i, sp := range asset.SharedPackets() {
		switch p := sp.Packet(); {
		case p.Keyframe() && !seen[p.PTS]:
			seen[p.PTS] = true
			requests = append(requests, request{seek(p.PTS), asset.SeekIndex(p.PTS)})
		case !midGOP && !p.Keyframe() && p.Kind == media.KindVideo:
			// A time inside a group of pictures lands on an earlier packet.
			if from := asset.SeekIndex(p.PTS); from > 0 && from < i {
				midGOP = true
				requests = append(requests, request{seek(p.PTS), from})
			}
		}
	}
	if !midGOP || len(seen) < 3 {
		t.Fatalf("lecture has %d keyframe times and no mid-GOP seek: too small to cover the seek points", len(seen))
	}

	suffixes := 0
	for _, rq := range requests {
		full, resp := get(t, ts, rq.path, nil)
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("GET %s: Transfer-Encoding %v, want a declared length", rq.path, resp.TransferEncoding)
		}
		if want := writerBytes(t, asset, rq.from); !bytes.Equal(full, want) {
			t.Fatalf("GET %s: %d-byte body differs from the writer's %d bytes from packet %d",
				rq.path, len(full), len(want), rq.from)
		}
		if rq.from > 0 {
			suffixes++
		}
		etag := resp.Header.Get("Etag")
		if etag != asset.etag[0] {
			t.Fatalf("GET %s: ETag %q, want the asset's %q", rq.path, etag, asset.etag[0])
		}
		ranged := func(n int64) http.Header {
			return http.Header{"Range": {proto.FormatRange(n)}, "If-Range": {etag}}
		}
		// The body's boundaries: the first packet's first byte and its
		// middle, the last packet's first byte and its middle.
		size := int64(len(full))
		first := int64(len(asset.header))
		shared := asset.SharedPackets()
		last := size - int64(len(shared[len(shared)-1].Wire()))
		fullOnly := []http.Header{
			{"Range": {proto.FormatRange(1)}},                          // no If-Range
			{"Range": {proto.FormatRange(1)}, "If-Range": {`"stale"`}}, // another asset's tag
			{"Range": {"bytes=1-9"}, "If-Range": {etag}},               // bounded
			{"Range": {"bytes=-9"}, "If-Range": {etag}},                // suffix
			{"Range": {"bytes=1-,9-"}, "If-Range": {etag}},             // multi-range
			ranged(size), ranged(size + 1), // past the body
		}
		if strings.HasPrefix(rq.path, proto.Versioned(proto.PrefixFetch)) {
			fullOnly = append(fullOnly, ranged(1)) // a mirror pull takes the whole body
		} else {
			wire0 := int64(len(shared[rq.from].Wire()))
			for _, n := range []int64{1, first - 1, first, first + wire0/2, last - 1, last, (last + size) / 2, size - 1} {
				body, resp := get(t, ts, rq.path, ranged(n))
				if resp.StatusCode != http.StatusPartialContent {
					t.Fatalf("GET %s from byte %d: status %d, want 206", rq.path, n, resp.StatusCode)
				}
				if got, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes %d-%d/%d", n, size-1, size); got != want {
					t.Fatalf("GET %s from byte %d: Content-Range %q, want %q", rq.path, n, got, want)
				}
				if !bytes.Equal(body, full[n:]) {
					t.Fatalf("GET %s from byte %d: %d-byte body is not the %d-byte tail", rq.path, n, len(body), size-n)
				}
			}
		}
		for _, h := range fullOnly {
			body, resp := get(t, ts, rq.path, h)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Range") != "" || !bytes.Equal(body, full) {
				t.Fatalf("GET %s with %v: status %d, %d bytes; want the whole %d-byte body", rq.path, h, resp.StatusCode, len(body), size)
			}
		}
	}
	if suffixes == 0 {
		t.Fatal("no request started past the first packet")
	}
	t.Logf("%d responses, %d of them from past the first packet", len(requests), suffixes)
}

// get requests path with the header h and returns the body, checked
// against the response's declared length.
func get(t *testing.T, ts *httptest.Server, path string, h http.Header) ([]byte, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = h
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("GET %s: Content-Length %d, body %d bytes", path, resp.ContentLength, len(body))
	}
	return body, resp
}

// TestStoredResponseLeavesInRuns: an unpaced stored response — a VOD
// session, a mirror fetch — is the bytes an asf.Writer writes, and it
// leaves in a few connection writes: at most two for the response head,
// the header and the start of the body (a first packet or run larger
// than the connection's 4 KB buffer is split there), then one per run of
// images that lie back to back in one slab buffer (asf.Run). Each 64 KB
// buffer holds a run; an image with a buffer of its own is a run of one,
// and the images behind it that resume the buffer it interrupted are one
// more.
func TestStoredResponseLeavesInRuns(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(encodeDSLAsset(t))))
	if err != nil {
		t.Fatal(err)
	}
	// The slab rule of a stored container's reader (asf): 64 KB buffers,
	// and a buffer of its own for an image of 16 KB or more that does not
	// fit in what is left of the current one.
	const slab, ownMin = 64 << 10, 16 << 10
	buffers, own, free := 0, 0, 0
	for _, sp := range asset.SharedPackets() {
		switch n := len(sp.Wire()); {
		case n <= free:
			free -= n
		case n >= ownMin:
			own++
		default:
			buffers++
			free = slab - n
		}
	}
	if own == 0 {
		t.Fatal("no image of the lecture has a buffer of its own")
	}
	mem, counted := serveCounted(t, srv.Handler())
	client := mem.Client()
	defer client.CloseIdleConnections()
	want := writerBytes(t, asset, 0)
	for _, stream := range []proto.StreamKind{proto.StreamVOD, proto.StreamFetch} {
		url := "http://origin.lod" + proto.Versioned(proto.StreamPath(stream, "lec"))
		before := counted.writes.Load()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("GET %s: %d bytes, %v; want the writer's %d bytes", url, len(body), err, len(want))
		}
		// Every write has happened once the last byte is read: on MemNet a
		// write returns when its bytes are read.
		writes := counted.writes.Load() - before
		if limit := int64(2 + buffers + 2*own); writes > limit {
			t.Fatalf("GET %s: %d connection writes for %d packets in %d slab buffers and %d own buffers; want at most %d",
				url, writes, len(asset.SharedPackets()), buffers, own, limit)
		}
		t.Logf("GET %s: %d connection writes for %d packets (%d slab buffers, %d own)",
			url, writes, len(asset.SharedPackets()), buffers, own)
	}
}
