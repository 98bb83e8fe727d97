package streaming

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/media"
)

func TestVODSeekSkipsEarlyPackets(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false
	data := encodeTestAsset(t, 4*time.Second)
	asset, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(asset.Index) == 0 {
		t.Fatal("asset has no index; seek test needs keyframes")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	full := countVODPackets(t, ts.URL+"/v1/vod/lec")
	seeked := countVODPackets(t, ts.URL+"/v1/vod/lec?start=2s")
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

// registerContainer assembles a stored container from its parts — so a
// test can pair packets with an index no encoder would write — and
// registers it the way every asset arrives.
func registerContainer(t *testing.T, packets []asf.Packet, ix asf.Index) *Asset {
	t.Helper()
	data, err := asf.EncodeHeader(asf.Header{Title: "seek"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets {
		p.Kind = media.KindVideo
		b, err := asf.EncodePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, b...)
	}
	b, err := asf.EncodeIndex(ix)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewServer(nil).RegisterAsset("seek", asf.NewReader(bytes.NewReader(append(data, b...))))
	if err != nil {
		t.Fatal(err)
	}
	return a
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

// TestSeekIndexConcurrent exercises the seq→position map under
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
	// An index entry pointing at a sequence number no packet carries
	// (truncated or hand-edited file) still plays from the start.
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
