package streaming

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/media"
	"repro/internal/testutil"
)

// encodeTestAsset produces a short stored lecture container.
func encodeTestAsset(t testing.TB, dur time.Duration) []byte {
	t.Helper()
	return encodeSlidesAsset(t, dur, 2)
}

// encodeSlidesAsset is encodeTestAsset with the given number of slides.
func encodeSlidesAsset(t testing.TB, dur time.Duration, slides int) []byte {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "stream test", Duration: dur, Profile: p, SlideCount: slides, Seed: 3,
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

func TestRegisterAndListAssets(t *testing.T) {
	srv := NewServer(nil)
	data := encodeTestAsset(t, 2*time.Second)
	a, err := srv.RegisterAsset("lec1", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Header.Title != "stream test" {
		t.Fatalf("title = %q", a.Header.Title)
	}
	if len(a.SharedPackets()) == 0 || a.Bytes() == 0 {
		t.Fatal("asset has no packets")
	}
	// Packets is built once, exactly sized, as views over the wire images.
	if shared := a.SharedPackets(); len(a.Packets) != len(shared) || cap(a.Packets) != len(shared) {
		t.Fatalf("Packets: len %d cap %d, want both %d", len(a.Packets), cap(a.Packets), len(shared))
	}
	for i, sp := range a.SharedPackets() {
		p, want := a.Packets[i], sp.Packet()
		if !reflect.DeepEqual(p, want) || len(p.Payload) > 0 && &p.Payload[0] != &want.Payload[0] {
			t.Fatalf("Packets[%d] is not SharedPackets()[%d].Packet()", i, i)
		}
	}
	if _, err := srv.RegisterAsset("lec1", asf.NewReader(bytes.NewReader(data))); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register = %v", err)
	}
	if got := srv.AssetNames(); len(got) != 1 || got[0] != "lec1" {
		t.Fatalf("AssetNames = %v", got)
	}
	if _, ok := srv.Asset("lec1"); !ok {
		t.Fatal("Asset lookup failed")
	}
}

func TestVODEndpointUnpaced(t *testing.T) {
	srv := NewServer(nil)
	srv.Pacing = false // no real-time pacing in unit tests
	data := encodeTestAsset(t, 2*time.Second)
	if _, err := srv.RegisterAsset("lec1", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/vod/lec1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := check.Body(resp.Body, storedBody(t, data, 0)); err != nil {
		t.Fatal(err)
	}
	asset, _ := srv.Asset("lec1")
	st := srv.Stats()
	if st.VODSessions != 1 || st.PacketsSent != int64(len(asset.SharedPackets())) {
		t.Fatalf("stats = %+v, want one session and the asset's %d packets", st, len(asset.SharedPackets()))
	}
}

func TestVODNotFound(t *testing.T) {
	srv := NewServer(nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/vod/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestAssetsEndpoint(t *testing.T) {
	srv := NewServer(nil)
	data := encodeTestAsset(t, time.Second)
	if _, err := srv.RegisterAsset("a1", asf.NewReader(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/assets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["name"] != "a1" {
		t.Fatalf("assets = %v", got)
	}
}

func liveHeader(t *testing.T) asf.Header {
	t.Helper()
	return asf.Header{
		Title: "live test",
		Streams: []asf.StreamProps{
			{ID: media.StreamVideo, Kind: media.KindVideo, Codec: "sim-mpeg4", BitsPerSecond: 56_000},
			{ID: media.StreamScript, Kind: media.KindScript, Codec: "script"},
		},
	}
}

func videoPacket(pts time.Duration, key bool, size int) asf.Packet {
	var flags uint8
	if key {
		flags |= asf.PacketKeyframe
	}
	return asf.Packet{
		Stream: media.StreamVideo, Kind: media.KindVideo, Flags: flags,
		PTS: pts, SendAt: pts, Payload: bytes.Repeat([]byte{1}, size),
	}
}

func TestChannelPublishSubscribe(t *testing.T) {
	ch, err := NewChannel("c1", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Header().Live() {
		t.Fatal("channel header not marked live")
	}

	// A keyframe + delta before anyone joins: a join starts at the
	// keyframe.
	if err := ch.Publish(videoPacket(0, true, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ch.Publish(videoPacket(time.Second, false, 50)); err != nil {
		t.Fatal(err)
	}
	sub, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// A new keyframe is where later joiners start.
	if err := ch.Publish(videoPacket(2*time.Second, true, 100)); err != nil {
		t.Fatal(err)
	}
	sub2, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()

	// The first subscriber reads the keyframe it joined at, the delta
	// and the live keyframe; the late one the new keyframe alone.
	for i, tc := range []struct {
		sub  *Subscriber
		want []time.Duration
	}{{sub, []time.Duration{0, time.Second, 2 * time.Second}}, {sub2, []time.Duration{2 * time.Second}}} {
		for k, want := range tc.want {
			select {
			case sp := <-tc.sub.C:
				if p := sp.Packet(); p.PTS != want || (k == 0 && !p.Keyframe()) {
					t.Fatalf("subscriber %d, packet %d: PTS %v keyframe %v; want PTS %v", i, k, p.PTS, p.Keyframe(), want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("subscriber %d: packet %d not delivered", i, k)
			}
		}
	}
	if ch.ClientCount() != 2 {
		t.Fatalf("clients = %d", ch.ClientCount())
	}
	if ch.Published() != 3 {
		t.Fatalf("published = %d", ch.Published())
	}
}

// TestChannelSlowSubscriberDrops: a viewer the log has passed loses
// whole GOPs, never single packets. It jumps to the log's tail, the
// first seek point the log holds, and the packets it skipped count as
// dropped and the jump as a resync, on the channel and in the server's
// metrics.
func TestChannelSlowSubscriberDrops(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("slow", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ch.join(false)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.leave(cur)
	const packets, gop = 1000, 10
	for i := 0; i < packets; i++ {
		if err := ch.Publish(videoPacket(time.Duration(i)*40*time.Millisecond, i%gop == 0, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// Publishing a GOP start cuts the log at the latest GOP start with
	// logKeep packets behind it.
	last := (packets - 1) / gop * gop
	tail := (last + 1 - logKeep) / gop * gop
	var batch []*asf.Shared
	gone := make(chan struct{})
	close(gone) // the viewer leaves once it has read what the log holds
	ch.drain(cur, gone, func() error { return nil }, func(round []*asf.Shared) bool {
		batch = append(batch, round...)
		return true
	})
	if len(batch) != packets-tail {
		t.Fatalf("the passed viewer reads %d packets; want the %d from the tail", len(batch), packets-tail)
	}
	if p := batch[0].Packet(); !p.Keyframe() || p.PTS != time.Duration(tail)*40*time.Millisecond {
		t.Fatalf("the passed viewer resumes at PTS %v keyframe %v; want the GOP at packet %d", p.PTS, p.Keyframe(), tail)
	}
	if ch.Dropped() != int64(tail) || ch.Resyncs() != 1 {
		t.Fatalf("dropped = %d, resyncs = %d; want %d, 1", ch.Dropped(), ch.Resyncs(), tail)
	}
	status := srv.Metrics().Status()
	if got := status["lod_channel_dropped_total"]; got != float64(tail) {
		t.Fatalf("lod_channel_dropped_total = %v, want %d", got, tail)
	}
	if got := status["lod_channel_resyncs_total"]; got != 1 {
		t.Fatalf("lod_channel_resyncs_total = %v, want 1", got)
	}
}

func TestChannelClose(t *testing.T) {
	ch, err := NewChannel("c", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	ch.Close()
	if _, open := <-sub.C; open {
		t.Fatal("subscriber channel still open after Close")
	}
	if err := ch.Publish(videoPacket(0, true, 1)); !errors.Is(err, ErrChanClosed) {
		t.Fatalf("publish after close = %v", err)
	}
	if _, err := ch.Subscribe(); !errors.Is(err, ErrChanClosed) {
		t.Fatalf("subscribe after close = %v", err)
	}
	ch.Close() // idempotent
}

func TestSubscriberCloseIdempotent(t *testing.T) {
	ch, err := NewChannel("c", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close()
	if ch.ClientCount() != 0 {
		t.Fatal("subscriber not removed")
	}
}

func TestPublishPacedCancellation(t *testing.T) {
	ch, err := NewChannel("c", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pkts := []asf.Packet{videoPacket(time.Hour, true, 1)}
	if err := ch.PublishPaced(ctx, nil, pkts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLiveEndpointEndToEnd(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("class", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateChannel("class", liveHeader(t)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate channel = %v", err)
	}
	if _, ok := srv.Channel("class"); !ok {
		t.Fatal("channel lookup failed")
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Client joins and reads in a goroutine: the channel's header, then
	// every packet published after it attached.
	packets := burstPackets(t, 10)
	want := bytes.Clone(ch.wireHeader)
	for _, sp := range packets {
		want = append(want, sp.Wire()...)
	}
	received := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/live/class")
		if err != nil {
			received <- err
			return
		}
		defer resp.Body.Close()
		received <- check.Body(resp.Body, want) // EOF when the channel closes
	}()

	// Wait for the subscriber to attach, then publish and close.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() > 0 },
		"live subscriber never attached")
	for _, sp := range packets {
		if err := ch.Publish(sp.Packet()); err != nil {
			t.Fatal(err)
		}
	}
	ch.Close()
	if err := <-received; err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.LiveSessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLiveEndpointClosedChannelRejects(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("done", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	ch.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/live/done")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 410 {
		t.Fatalf("status = %d, want 410 Gone", resp.StatusCode)
	}
	if srv.Stats().RejectedJoins != 1 {
		t.Fatal("rejected join not counted")
	}
	// A refused join is not a session: nothing started, nothing in flight.
	if st := srv.Stats(); st.LiveSessions != 0 || st.ActiveClients != 0 || st.InFlightBps != 0 {
		t.Fatalf("refused join booked as a session: %+v", st)
	}
	if got := srv.Metrics().Status()[`lod_sessions_started_total{kind="live"}`]; got != 0 {
		t.Fatalf("lod_sessions_started_total{kind=\"live\"} = %v after a refused join, want 0", got)
	}
}

func TestChannelsEndpoint(t *testing.T) {
	srv := NewServer(nil)
	if _, err := srv.CreateChannel("c1", liveHeader(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/channels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["name"] != "c1" {
		t.Fatalf("channels = %v", got)
	}
}

// lectureForProfile encodes a live lecture at an explicit profile.
func lectureForProfile(t *testing.T, p codec.Profile, dur time.Duration, slides int) ([]byte, error) {
	t.Helper()
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "late join", Duration: dur, Profile: p, SlideCount: slides, Seed: 12,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{Live: true}, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestLivePacketsCountedWhileViewing: a live session books its packets
// as it writes them, so lod_packets_sent_total and lod_bytes_sent_total
// rise during a broadcast, not all at once when a viewer leaves.
func TestLivePacketsCountedWhileViewing(t *testing.T) {
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("class", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/live/class")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := asf.NewReader(resp.Body)
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	const n = 10
	var payload int64
	for i := 0; i < n; i++ {
		p := videoPacket(time.Duration(i)*100*time.Millisecond, i == 0, 64)
		payload += int64(len(p.Payload))
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadPacket(); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	// The viewer is still attached and the broadcast still open.
	if st := srv.Stats(); st.ActiveClients != 1 || st.PacketsSent < n || st.BytesSent < payload {
		t.Fatalf("after a viewer read %d packets (%d payload bytes): %+v; want them counted before it leaves", n, payload, st)
	}
}
