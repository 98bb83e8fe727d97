package streaming

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/media"
	"repro/internal/player"
)

func TestVODSeekSkipsEarlyPackets(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	// Two GOPs: a modem-56k lecture has a video keyframe every 5 s.
	data := encodeTestAsset(t, 8*time.Second)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(asset.points) < 2 {
		t.Fatalf("asset has %d seek points; the seek test needs two", len(asset.points))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	full := countVODPackets(t, ts.URL+"/v1/vod/lec")
	seeked := countVODPackets(t, ts.URL+"/v1/vod/lec?start=6s")
	if seeked >= full {
		t.Fatalf("seeked stream has %d packets, full has %d", seeked, full)
	}
	if seeked == 0 {
		t.Fatal("seeked stream empty")
	}
}

func TestVODSeekStartsAtKeyframe(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	data := encodeTestAsset(t, 4*time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec?start=2s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := asf.NewReader(resp.Body)
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	first, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Keyframe() {
		t.Fatalf("seeked stream starts with a non-keyframe (stream %d, pts %v)", first.Stream, first.PTS)
	}
	if first.PTS > 2*time.Second {
		t.Fatalf("seek overshot: first packet pts %v", first.PTS)
	}
}

// TestPlayerSeekLandsInSync: a student who jumps into a lecture through
// ?start= gets a stream the real player decodes without a broken frame,
// starting at the video keyframe at or before the target — within one
// GOP of it.
func TestPlayerSeekLandsInSync(t *testing.T) {
	data := encodeSlidesAsset(t, 20*time.Second, 4)
	h, _, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Scripts) < 3 {
		t.Fatalf("lecture has %d script commands, want at least 3 slides", len(h.Scripts))
	}
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	gop := time.Duration(profile.GOPFrames) * time.Second / time.Duration(profile.FrameRate)
	srv := NewServer(nil)
	srv.Pacing = false
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, target := range []time.Duration{
		1 * time.Second, 4900 * time.Millisecond, 5 * time.Second,
		7500 * time.Millisecond, 12 * time.Second, 19 * time.Second,
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec?start=" + target.String())
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		m, err := player.New(player.Options{}).Play(io.TeeReader(resp.Body, &body))
		resp.Body.Close()
		if err != nil {
			t.Fatalf("seek to %v: %v", target, err)
		}
		if m.BrokenFrames != 0 || m.VideoFrames == 0 {
			t.Fatalf("seek to %v: %d broken of %d video frames", target, m.BrokenFrames, m.VideoFrames)
		}
		first := firstVideo(t, body.Bytes())
		if !first.Keyframe() {
			t.Fatalf("seek to %v: first video packet at %v is not a keyframe", target, first.PTS)
		}
		if first.PTS > target || target-first.PTS >= gop {
			t.Fatalf("seek to %v: first video packet at %v, want within the %v GOP before", target, first.PTS, gop)
		}
	}
}

// firstVideo is the first video packet of a stored response body.
func firstVideo(t *testing.T, body []byte) asf.Packet {
	t.Helper()
	r := asf.NewReader(bytes.NewReader(body))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	for {
		p, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("no video packet: %v", err)
		}
		if p.Kind == media.KindVideo {
			return p
		}
	}
}

// TestVODSeekStartParameterTable pins the hardened ?start contract: a
// valid duration seeks (200), a malformed or negative one is refused
// with 400 and a proto.Error JSON body naming the parameter — never
// silently played from the top.
func TestVODSeekStartParameterTable(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	data := encodeTestAsset(t, time.Second)
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		query  string
		status int
	}{
		{"", 200},             // no seek: full stream
		{"?start=0s", 200},    // explicit zero is a valid seek
		{"?start=500ms", 200}, // mid-stream seek
		{"?start=99h", 200},   // past the end: plays from the last keyframe
		{"?start=bogus", 400}, // not a duration
		{"?start=30", 400},    // bare number is not a Go duration
		{"?start=-5s", 400},   // negative offset
		{"?start=-1ns", 400},  // barely negative still refused
		{"?start=%2Ds", 400},  // encoded junk decodes to "-s": malformed
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("GET %s status %d, want %d", tc.query, resp.StatusCode, tc.status)
		}
		if tc.status == 400 {
			// The refusal carries the typed proto error body.
			var perr struct {
				Status  int    `json:"status"`
				Message string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&perr); err != nil {
				t.Fatalf("GET %s: undecodable error body: %v", tc.query, err)
			}
			if perr.Status != 400 || !strings.Contains(perr.Message, "start") {
				t.Fatalf("GET %s error body = %+v", tc.query, perr)
			}
		}
		resp.Body.Close()
	}
}

// legacyIndex is the index object a writer closed a stored stream with
// before none did: "IX", the entry count, then each entry's PTS and Seq.
func legacyIndex(ix asf.Index) []byte {
	b := binary.LittleEndian.AppendUint32([]byte("IX"), uint32(len(ix)))
	for _, e := range ix {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.PTS))
		b = binary.LittleEndian.AppendUint32(b, e.Seq)
	}
	return b
}

// encodeContainer is h's encoding followed by the wire image of each
// packet as it is, Seq included.
func encodeContainer(t *testing.T, h asf.Header, packets []asf.Packet) []byte {
	t.Helper()
	data, err := asf.EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		b, err := asf.EncodePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, b...)
	}
	return data
}

// assemble encodes a stored container from its parts, closed by the
// legacy index ix — so a test can pair packets with an index no
// asf.Writer would write.
func assemble(t *testing.T, h asf.Header, packets []asf.Packet, ix asf.Index) []byte {
	t.Helper()
	return append(encodeContainer(t, h, packets), legacyIndex(ix)...)
}

// registerContainer assembles a container of video packets and index ix
// and registers it the way every asset arrives.
func registerContainer(t *testing.T, packets []asf.Packet, ix asf.Index) *Asset {
	t.Helper()
	for i := range packets {
		packets[i].Kind = media.KindVideo
	}
	data := assemble(t, asf.Header{Title: "seek"}, packets, ix)
	a, err := NewServer(nil).RegisterAsset("seek", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// legacyContainer is a stored lecture with in-band slide commands, closed
// by the index a writer wrote before seek points were video keyframes: an
// entry for every packet flagged PacketKeyframe — each audio block, slide
// image and script command besides the video keyframes.
func legacyContainer(t *testing.T) []byte {
	t.Helper()
	h, stored, _, err := asf.ReadAll(bytes.NewReader(encodeSlidesAsset(t, 12*time.Second, 3)))
	if err != nil {
		t.Fatal(err)
	}
	var packets []asf.Packet
	scripts := h.Scripts
	for _, p := range stored {
		for len(scripts) > 0 && scripts[0].At <= p.SendAt {
			sp, err := asf.ScriptPacket(scripts[0], media.StreamScript)
			if err != nil {
				t.Fatal(err)
			}
			packets, scripts = append(packets, sp), scripts[1:]
		}
		packets = append(packets, p)
	}
	var old asf.Index
	flagged := map[media.Kind]bool{}
	for i := range packets {
		packets[i].Seq = uint32(i)
		if p := packets[i]; p.Keyframe() {
			old = append(old, asf.IndexEntry{PTS: p.PTS, Seq: p.Seq})
			flagged[p.Kind] = true
		}
	}
	for _, k := range []media.Kind{media.KindVideo, media.KindAudio, media.KindImage, media.KindScript} {
		if !flagged[k] {
			t.Fatalf("legacy container has no %v packet flagged a keyframe", k)
		}
	}
	return assemble(t, h, packets, old)
}

// TestLegacyTrailerIgnored: a container whose trailer indexes audio,
// image and script packets still registers, and every stored response it
// serves — the mirror fetch, the VOD body, each seek — is the body
// check.StoredBody derives from it: its header and the packets from the
// video keyframe at or before the seek, ending with the last packet. The
// trailer is never served, and a seek lands on a video keyframe, never on
// the audio, image or script packets the trailer also lists.
func TestLegacyTrailerIgnored(t *testing.T) {
	data := legacyContainer(t)
	srv := NewServer(nil)
	srv.Pacing = false
	asset, err := srv.RegisterAsset("old", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type request struct {
		path string
		at   time.Duration // the start the body is derived from
	}
	requests := []request{{"/v1/fetch/old", 0}, {"/v1/vod/old", 0}}
	seeks := []time.Duration{0, 2500 * time.Millisecond, 5 * time.Second, 7 * time.Second, 11 * time.Second}
	for _, at := range seeks {
		requests = append(requests, request{"/v1/vod/old?start=" + at.String(), at})
	}
	for _, rq := range requests {
		resp, err := ts.Client().Get(ts.URL + rq.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("GET %s: Content-Length %d, body %d bytes", rq.path, resp.ContentLength, len(body))
		}
		if err := check.Body(bytes.NewReader(body), storedBody(t, data, rq.at)); err != nil {
			t.Fatalf("GET %s: %v", rq.path, err)
		}
		if rq.path != "/v1/fetch/old" {
			continue
		}
		// An edge mirrors the fetched body and seeks as the origin does.
		mirror, err := NewServer(nil).RegisterAsset("old", asf.NewReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatalf("mirror: %v", err)
		}
		for _, at := range seeks {
			if got, want := mirror.SeekIndex(at), asset.SeekIndex(at); got != want {
				t.Fatalf("mirror seeks %v to packet %d, origin to %d", at, got, want)
			}
		}
	}
}

func TestSeekIndexBounds(t *testing.T) {
	a := registerContainer(t,
		[]asf.Packet{
			{Seq: 0, Flags: asf.PacketKeyframe, PTS: 0},
			{Seq: 1, PTS: time.Second},
			{Seq: 2, Flags: asf.PacketKeyframe, PTS: 2 * time.Second},
		},
		asf.Index{{PTS: 0, Seq: 0}, {PTS: 2 * time.Second, Seq: 2}})
	if got := a.SeekIndex(0); got != 0 {
		t.Fatalf("SeekIndex(0) = %d", got)
	}
	if got := a.SeekIndex(90 * time.Second); got != 2 {
		t.Fatalf("SeekIndex(90s) = %d", got)
	}
	if got := a.SeekIndex(1500 * time.Millisecond); got != 0 {
		t.Fatalf("SeekIndex(1.5s) = %d", got)
	}
	empty := registerContainer(t, []asf.Packet{{Seq: 0}}, nil)
	if got := empty.SeekIndex(time.Second); got != 0 {
		t.Fatalf("no-index SeekIndex = %d", got)
	}
}

// TestSeekIndexConcurrent exercises the seek-point search under
// concurrent seeks, the load pattern of many clients joining mid-lecture.
func TestSeekIndexConcurrent(t *testing.T) {
	srv := NewServer(nil)
	data := encodeTestAsset(t, 4*time.Second)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 5)
	for i := range want {
		want[i] = asset.SeekIndex(time.Duration(i) * time.Second)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(want)*50; i++ {
				at := time.Duration(i%len(want)) * time.Second
				if got := asset.SeekIndex(at); got != want[i%len(want)] {
					t.Errorf("SeekIndex(%v) = %d, want %d", at, got, want[i%len(want)])
					return
				}
			}
		}()
	}
	wg.Wait()
	// A trailer entry pointing at a sequence number no packet carries
	// (truncated or hand-edited file) is ignored like the rest of the
	// trailer: with no seek point, a seek plays from the start.
	odd := registerContainer(t, []asf.Packet{{Seq: 5, PTS: 0}}, asf.Index{{PTS: 0, Seq: 99}})
	if got := odd.SeekIndex(time.Second); got != 0 {
		t.Fatalf("dangling index entry SeekIndex = %d", got)
	}
}

func countVODPackets(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := asf.NewReader(resp.Body)
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, err := r.ReadPacket(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	return n
}
