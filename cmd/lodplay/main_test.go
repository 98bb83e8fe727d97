package main

import (
	"bufio"
	"bytes"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/relay"
	"repro/internal/streaming"
)

func encodeTemp(t *testing.T, dur time.Duration) string {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "cli play", Duration: dur, Profile: p, SlideCount: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lec.asf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPlayFile(t *testing.T) {
	if err := run([]string{"-in", encodeTemp(t, 2*time.Second), "-v"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestPlayArgumentValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no input accepted")
	}
	if err := run([]string{"-in", "a", "-url", "b"}); err == nil {
		t.Fatal("both inputs accepted")
	}
	if err := run([]string{"-in", "x", "-start", "5s"}); err == nil {
		t.Fatal("-start without -url accepted")
	}
	if err := run([]string{"-in", "/does/not/exist"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFailoverFlagValidation(t *testing.T) {
	if err := run([]string{"-in", "whatever.asf", "-failover", "2"}); err == nil {
		t.Fatal("-failover without -url accepted")
	}
	if err := run([]string{"-url", "http://reg/v1/vod/x", "-failover", "-1"}); err == nil {
		t.Fatal("negative -failover accepted")
	}
}

// TestSpecFromURL covers the -url → SDK spec translation: decoded names,
// seek offsets and bandwidth from the query, and refusal of non-stream
// paths.
func TestSpecFromURL(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want client.Spec
	}{
		{"http://reg:9090/v1/vod/lec-1", client.Spec{Kind: client.VOD, Name: "lec-1"}},
		{"http://reg:9090/v1/vod/lec-1?start=2s", client.Spec{Kind: client.VOD, Name: "lec-1", Start: 2 * time.Second}},
		{"http://reg:9090/v1/live/class", client.Spec{Kind: client.Live, Name: "class"}},
		{"http://reg:9090/v1/group/g?bw=768000", client.Spec{Kind: client.Group, Name: "g", Bandwidth: 768000}},
		{"http://reg:9090/v1/vod/week%201%2Fintro", client.Spec{Kind: client.VOD, Name: "week 1/intro"}},
	} {
		u, err := url.Parse(tc.raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := specFromURL(u)
		if err != nil {
			t.Fatalf("specFromURL(%s): %v", tc.raw, err)
		}
		if got.Kind != tc.want.Kind || got.Name != tc.want.Name ||
			got.Start != tc.want.Start || got.Bandwidth != tc.want.Bandwidth {
			t.Errorf("specFromURL(%s) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
	for _, raw := range []string{
		"http://reg:9090/v1/registry/nodes", // not a stream
		"http://reg:9090/v1/fetch/lec",      // mirror path, not playable
		"http://reg:9090/v1/vod/",           // empty name
		"http://reg:9090/v1/vod/lec?start=bogus",
		"http://reg:9090/v1/group/g?bw=-1",
	} {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := specFromURL(u); err == nil {
			t.Errorf("specFromURL(%s) accepted", raw)
		}
	}
}

// TestURLPlaysThroughOnePath: a lone server and a registry in front of an edge
// are both played through the SDK, with and without -failover, and
// -server-status reads the node that served the stream.
func TestURLPlaysThroughOnePath(t *testing.T) {
	data, err := os.ReadFile(encodeTemp(t, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	origin := streaming.NewServer(nil)
	origin.Pacing = false
	if _, err := origin.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	originTS := httptest.NewServer(origin.Handler())
	defer originTS.Close()
	edgeSrv := streaming.NewServer(nil)
	edgeSrv.Pacing = false
	edgeTS := httptest.NewServer(relay.NewEdge(originTS.URL, edgeSrv).Handler())
	defer edgeTS.Close()
	registry := relay.NewRegistry(nil)
	defer registry.Close()
	if err := registry.Register(relay.NodeInfo{ID: "edge", URL: edgeTS.URL}); err != nil {
		t.Fatal(err)
	}
	regTS := httptest.NewServer(registry.Handler())
	defer regTS.Close()

	for _, base := range []string{originTS.URL, regTS.URL} {
		for _, extra := range [][]string{nil, {"-failover", "2"}, {"-start", "1s", "-server-status"}} {
			args := append([]string{"-url", base + "/v1/vod/lec"}, extra...)
			if err := run(args); err != nil {
				t.Fatalf("run %v: %v", args, err)
			}
		}
	}
	// The registry plays landed on the edge, the direct ones on the origin.
	if got := origin.Stats().VODSessions; got != 3 {
		t.Fatalf("origin VOD sessions = %d, want the 3 direct plays", got)
	}
	if got := edgeSrv.Stats().VODSessions; got != 3 {
		t.Fatalf("edge VOD sessions = %d, want the 3 registry plays", got)
	}
}

// TestRealtimeSeekPlaysOnlyTheTail: -realtime counts the presentation
// schedule from the first packet, so a seeked stream presents its tail
// in about the tail's length instead of first sleeping through the
// presentation time the seek skipped.
func TestRealtimeSeekPlaysOnlyTheTail(t *testing.T) {
	data, err := os.ReadFile(encodeTemp(t, 6*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	srv := streaming.NewServer(nil)
	srv.Pacing = false
	if _, err := srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The body runs from the last seek point at or before the start to
	// the lecture's last packet.
	const start = 5 * time.Second
	h, packets, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var from, last time.Duration
	for _, p := range packets {
		if p.PTS <= start && h.SeekPoint(p) {
			from = p.PTS
		}
		last = max(last, p.PTS)
	}
	if from == 0 {
		t.Fatal("no seek point past the lecture's start")
	}
	tail := last - from

	began := time.Now()
	if err := run([]string{"-url", ts.URL + "/v1/vod/lec", "-start", start.String(), "-realtime"}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); took > tail+500*time.Millisecond {
		t.Fatalf("a %v tail from %v took %v to play", tail, from, took)
	}
}
