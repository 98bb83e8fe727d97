package check

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
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

// encodeBody encodes liveHeader and, for each sequence number, a packet
// that is a video keyframe when key says so and an audio packet
// otherwise; it returns the header and each packet's wire image.
func encodeBody(t *testing.T, key func(seq uint32) bool, seqs ...uint32) (header []byte, packets [][]byte) {
	t.Helper()
	header, err := asf.EncodeHeader(liveHeader())
	if err != nil {
		t.Fatal(err)
	}
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
		packets = append(packets, wire)
	}
	return header, packets
}

// everyFifth makes every fifth sequence number a video keyframe, a seek
// point 200 ms after the one before.
func everyFifth(seq uint32) bool { return seq%5 == 0 }

func TestLiveBody(t *testing.T) {
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
			header, packets := encodeBody(t, everyFifth, tc.seqs...)
			body := bytes.Join(append([][]byte{header}, packets...), nil)
			if err := LiveBody(header, bytes.NewReader(body)); !errors.Is(err, tc.want) || (tc.want == nil && err != nil) {
				t.Fatalf("LiveBody = %v, want %v", err, tc.want)
			}
		})
	}

	header, packets := encodeBody(t, everyFifth, 0, 1, 2)
	body := bytes.Join(append([][]byte{header}, packets...), nil)
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

// TestStoredBody: a stored body is the header and the packets from the
// last seek point at or before the start on; a start of 0, or one before
// every seek point, is the whole body, and a legacy index trailer is
// never part of it.
func TestStoredBody(t *testing.T) {
	// Packets 1 to 4 are audio, so the first seek point is packet 5.
	seqs := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	header, packets := encodeBody(t, everyFifth, seqs...)
	from := func(seq uint32) []byte {
		return bytes.Join(append([][]byte{header}, packets[seq-seqs[0]:]...), nil)
	}
	whole := from(seqs[0])
	legacyIndex := []byte{'I', 'X', 0, 0, 0, 0}
	container := append(bytes.Clone(whole), legacyIndex...)
	for _, tc := range []struct {
		start time.Duration
		want  []byte
	}{
		{0, whole},
		{100 * time.Millisecond, whole}, // before the first seek point
		{200 * time.Millisecond, from(5)},
		{399 * time.Millisecond, from(5)},
		{400 * time.Millisecond, from(10)},
		{time.Hour, from(10)},
	} {
		got, err := StoredBody(container, tc.start)
		if err != nil {
			t.Fatalf("StoredBody(%v): %v", tc.start, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("StoredBody(%v) is %d bytes, want %d", tc.start, len(got), len(tc.want))
		}
	}
	if _, err := StoredBody(whole[:len(whole)-1], 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("StoredBody of a cut container: %v, want an unexpected EOF", err)
	}
}

// TestBody: a body that is want passes; one that differs names the first
// byte that differs and the packet it falls in; a short body is an
// unexpected EOF and a long one ErrBody.
func TestBody(t *testing.T) {
	header, packets := encodeBody(t, everyFifth, 0, 1, 2, 3)
	want := bytes.Join(append([][]byte{header}, packets...), nil)
	if err := Body(bytes.NewReader(want), want); err != nil {
		t.Fatalf("the body itself: %v", err)
	}
	if err := Body(iotest.OneByteReader(bytes.NewReader(want)), want); err != nil {
		t.Fatalf("the body itself, read in pieces: %v", err)
	}
	third := len(header) + len(packets[0]) + len(packets[1])
	for _, tc := range []struct {
		name string
		off  int
		in   string
	}{
		{"a header byte", 5, "the header"},
		{"the third packet's first byte", third, "packet 2 (sequence number 2"},
		{"the last byte", len(want) - 1, "packet 3 (sequence number 3"},
	} {
		got := bytes.Clone(want)
		got[tc.off] ^= 0xFF
		err := Body(bytes.NewReader(got), want)
		if !errors.Is(err, ErrBody) || !strings.Contains(err.Error(), fmt.Sprintf("byte %d ", tc.off)) || !strings.Contains(err.Error(), tc.in) {
			t.Fatalf("%s flipped: %v, want ErrBody at byte %d in %s", tc.name, err, tc.off, tc.in)
		}
	}
	if err := Body(bytes.NewReader(want[:third+1]), want); !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "packet 2 ") {
		t.Fatalf("a body cut inside its third packet: %v, want an unexpected EOF in packet 2", err)
	}
	if err := Body(bytes.NewReader(append(bytes.Clone(want), 0)), want); !errors.Is(err, ErrBody) {
		t.Fatalf("a body one byte long: %v, want ErrBody", err)
	}
	cut := errors.New("connection reset")
	if err := Body(io.MultiReader(bytes.NewReader(want[:9]), iotest.ErrReader(cut)), want); !errors.Is(err, cut) {
		t.Fatalf("a body whose read fails: %v, want the read's error", err)
	}
}
