package check

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/media"
)

// liveHeader is a live channel's header: a video stream, so its seek
// points are video keyframes.
func liveHeader() asf.Header {
	return asf.Header{Title: "check", Flags: asf.FlagLive, Streams: []asf.StreamProps{
		{ID: media.StreamVideo, Kind: media.KindVideo, Codec: "sim-mpeg4"},
		{ID: media.StreamAudio, Kind: media.KindAudio, Codec: "sim-acelp"},
	}}
}

// liveBody encodes the header and, for each sequence number, a packet
// that is a video keyframe when key says so and an audio packet
// otherwise.
func liveBody(t *testing.T, key func(seq uint32) bool, seqs ...uint32) (header, body []byte) {
	t.Helper()
	header, err := asf.EncodeHeader(liveHeader())
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, header...)
	for _, seq := range seqs {
		p := asf.Packet{Stream: media.StreamAudio, Kind: media.KindAudio, Flags: asf.PacketKeyframe,
			PTS: time.Duration(seq) * 40 * time.Millisecond, Seq: seq, Payload: []byte{byte(seq)}}
		if key(seq) {
			p.Stream, p.Kind = media.StreamVideo, media.KindVideo
		}
		wire, err := asf.EncodePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, wire...)
	}
	return header, body
}

func TestLiveBody(t *testing.T) {
	everyFifth := func(seq uint32) bool { return seq%5 == 0 }
	for _, tc := range []struct {
		name string
		seqs []uint32
		want error
	}{
		{"whole", []uint32{0, 1, 2, 3, 4, 5, 6}, nil},
		{"joined mid-GOP", []uint32{3, 4, 5, 6}, nil},
		{"header only", nil, nil},
		{"whole GOPs lost", []uint32{0, 1, 2, 10, 11, 15}, nil},
		{"a gap before a packet that is no seek point", []uint32{0, 1, 3, 4}, ErrBody},
		{"a packet twice", []uint32{0, 1, 1, 2}, ErrBody},
		{"back to an earlier seek point", []uint32{0, 1, 2, 5, 6, 0}, ErrBody},
	} {
		t.Run(tc.name, func(t *testing.T) {
			header, body := liveBody(t, everyFifth, tc.seqs...)
			if err := LiveBody(header, bytes.NewReader(body)); !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
				t.Fatalf("LiveBody = %v, want %v", err, tc.want)
			}
		})
	}

	header, body := liveBody(t, everyFifth, 0, 1, 2)
	if err := LiveBody(header, bytes.NewReader(body[:len(body)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body cut inside its last packet: %v, want an unexpected EOF", err)
	}
	if err := LiveBody(header, bytes.NewReader(body[:len(header)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body cut inside its header: %v, want an unexpected EOF", err)
	}
	other := bytes.Clone(body)
	other[len(header)-1] ^= 0xFF
	if err := LiveBody(header, bytes.NewReader(other)); !errors.Is(err, ErrBody) {
		t.Fatalf("a body under another header: %v, want ErrBody", err)
	}
}
