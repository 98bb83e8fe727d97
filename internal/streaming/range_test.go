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
	"repro/internal/check"
	"repro/internal/media"
	"repro/internal/proto"
)

// storedBody is check.StoredBody, failing the test on an error.
func storedBody(t *testing.T, container []byte, start time.Duration) []byte {
	t.Helper()
	body, err := check.StoredBody(container, start)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStoredResponseIsExactRange: every stored response — a mirror
// fetch, a VOD session from the top or from any seek point, a group
// session — declares its length, arrives unchunked, and is byte for byte
// the body check.StoredBody derives from the published container. Under
// the asset's ETag, a VOD or group request for bytes=n- gets exactly that
// body's tail from byte n, wherever n falls; any other range, and any
// range of a mirror fetch, gets the whole body.
func TestStoredResponseIsExactRange(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	data := encodeSlidesAsset(t, 6*time.Second, 3)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(asset.Header.Scripts); got < 3 {
		t.Fatalf("lecture has %d script commands, want a slide flip for each of 3 slides", got)
	}
	if _, err := srv.CreateRateGroup("course", asset); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	vod := proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec"))
	seek := func(at time.Duration) string {
		return vod + "?" + proto.ParamStart + "=" + url.QueryEscape(at.String())
	}
	type request struct {
		path string
		at   time.Duration // the start the body is derived from
	}
	requests := []request{
		{proto.Versioned(proto.StreamPath(proto.StreamFetch, "lec")), 0},
		{proto.Versioned(proto.StreamPath(proto.StreamGroup, "course")), 0},
		{vod, 0},
		{seek(0), 0},
		{seek(99 * time.Hour), 99 * time.Hour},
	}
	h, packets, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[time.Duration]bool{}
	midGOP := false
	var gop time.Duration // the latest seek point's time
	for _, p := range packets {
		if h.SeekPoint(p) {
			gop = p.PTS
		}
		switch {
		case p.Keyframe() && !seen[p.PTS]:
			seen[p.PTS] = true
			requests = append(requests, request{seek(p.PTS), p.PTS})
		case !midGOP && gop > 0 && !p.Keyframe() && p.Kind == media.KindVideo:
			// A time inside a later group of pictures lands on an earlier
			// packet, its keyframe.
			midGOP = true
			requests = append(requests, request{seek(p.PTS), p.PTS})
		}
	}
	if !midGOP || len(seen) < 3 {
		t.Fatalf("lecture has %d keyframe times and no mid-GOP seek: too small to cover the seek points", len(seen))
	}

	// Every body starts with the header and ends with the lecture's last
	// packet; a packet's fixed part alone is 42 bytes.
	header, err := asf.EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	lastWire, err := asf.EncodePacket(packets[len(packets)-1])
	if err != nil {
		t.Fatal(err)
	}
	first, lastSize := int64(len(header)), int64(len(lastWire))
	whole := storedBody(t, data, 0)
	suffixes := 0
	for _, rq := range requests {
		want := storedBody(t, data, rq.at)
		full, resp := get(t, ts, rq.path, nil)
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("GET %s: Transfer-Encoding %v, want a declared length", rq.path, resp.TransferEncoding)
		}
		if err := check.Body(bytes.NewReader(full), want); err != nil {
			t.Fatalf("GET %s: %v", rq.path, err)
		}
		if len(want) < len(whole) {
			suffixes++
		}
		etag := resp.Header.Get("Etag")
		if etag != asset.etag[0] {
			t.Fatalf("GET %s: ETag %q, want the asset's %q", rq.path, etag, asset.etag[0])
		}
		ranged := func(n int64) http.Header {
			return http.Header{"Range": {proto.FormatRange(n)}, "If-Range": {etag}}
		}
		size := int64(len(want))
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
			// The first packet's first byte and one inside it, the last
			// packet's first byte and its middle.
			last := size - lastSize
			for _, n := range []int64{1, first - 1, first, first + 21, last - 1, last, last + lastSize/2, size - 1} {
				body, resp := get(t, ts, rq.path, ranged(n))
				if resp.StatusCode != http.StatusPartialContent {
					t.Fatalf("GET %s from byte %d: status %d, want 206", rq.path, n, resp.StatusCode)
				}
				if got, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes %d-%d/%d", n, size-1, size); got != want {
					t.Fatalf("GET %s from byte %d: Content-Range %q, want %q", rq.path, n, got, want)
				}
				if err := check.Body(io.MultiReader(bytes.NewReader(want[:n]), bytes.NewReader(body)), want); err != nil {
					t.Fatalf("GET %s from byte %d: %v", rq.path, n, err)
				}
			}
		}
		for _, h := range fullOnly {
			body, resp := get(t, ts, rq.path, h)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Range") != "" {
				t.Fatalf("GET %s with %v: status %d, Content-Range %q; want the whole body", rq.path, h, resp.StatusCode, resp.Header.Get("Content-Range"))
			}
			if err := check.Body(bytes.NewReader(body), want); err != nil {
				t.Fatalf("GET %s with %v: %v", rq.path, h, err)
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
// session, a mirror fetch — is the body check.StoredBody derives, and it
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
	data := encodeDSLAsset(t)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
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
	want := storedBody(t, data, 0)
	for _, stream := range []proto.StreamKind{proto.StreamVOD, proto.StreamFetch} {
		url := "http://origin.lod" + proto.Versioned(proto.StreamPath(stream, "lec"))
		before := counted.writes.Load()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		err = check.Body(resp.Body, want)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
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
