package streaming

import (
	"bytes"
	"io"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/media"
	"repro/internal/proto"
)

// writerBytes is what an asf.Writer writes for the asset's packets from
// position from on: its header, their wire images and the index it
// collects over their keyframes.
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
// what an asf.Writer given the same packets writes.
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
		resp, err := ts.Client().Get(ts.URL + rq.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", rq.path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", rq.path, resp.StatusCode)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("GET %s: Transfer-Encoding %v, want a declared length", rq.path, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("GET %s: Content-Length %d, body %d bytes", rq.path, resp.ContentLength, len(body))
		}
		if want := writerBytes(t, asset, rq.from); !bytes.Equal(body, want) {
			t.Fatalf("GET %s: %d-byte body differs from the writer's %d bytes from packet %d",
				rq.path, len(body), len(want), rq.from)
		}
		if rq.from > 0 {
			suffixes++
		}
	}
	if suffixes == 0 {
		t.Fatal("no request started past the first packet")
	}
	t.Logf("%d responses, %d of them from past the first packet", len(requests), suffixes)
}
