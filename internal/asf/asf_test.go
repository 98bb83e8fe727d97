package asf

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/media"
)

func sampleHeader() Header {
	return Header{
		Title:       "Lecture 1: Petri Nets",
		Duration:    60 * time.Second,
		PacketAlign: 1400,
		Streams: []StreamProps{
			{ID: media.StreamVideo, Kind: media.KindVideo, Codec: "sim-mpeg4", BitsPerSecond: 300_000,
				MaxSkew: 80 * time.Millisecond, MaxJitter: 20 * time.Millisecond},
			{ID: media.StreamAudio, Kind: media.KindAudio, Codec: "sim-acelp", BitsPerSecond: 16_000,
				MaxSkew: 80 * time.Millisecond},
			{ID: media.StreamScript, Kind: media.KindScript, Codec: "script"},
		},
		Scripts: []ScriptCommand{
			{At: 0, Type: "slide", Param: "slide01.png"},
			{At: 20 * time.Second, Type: "slide", Param: "slide02.png"},
			{At: 30 * time.Second, Type: "annotation", Param: "see chapter 3"},
		},
	}
}

func samplePackets() []Packet {
	return []Packet{
		{Stream: media.StreamVideo, Kind: media.KindVideo, Flags: PacketKeyframe,
			PTS: 0, Dur: 40 * time.Millisecond, SendAt: 0, Payload: bytes.Repeat([]byte{0xAB}, 512)},
		{Stream: media.StreamAudio, Kind: media.KindAudio, Flags: PacketKeyframe,
			PTS: 0, Dur: 100 * time.Millisecond, SendAt: 0, Payload: bytes.Repeat([]byte{0x01}, 64)},
		{Stream: media.StreamVideo, Kind: media.KindVideo,
			PTS: 40 * time.Millisecond, Dur: 40 * time.Millisecond, SendAt: 10 * time.Millisecond,
			Payload: bytes.Repeat([]byte{0xCD}, 128)},
		{Stream: media.StreamVideo, Kind: media.KindVideo, Flags: PacketKeyframe | PacketLast,
			PTS: 80 * time.Millisecond, Dur: 40 * time.Millisecond, SendAt: 40 * time.Millisecond,
			Payload: []byte{}},
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	data, err := EncodeHeader(h)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	r := NewReader(bytes.NewReader(data))
	got, err := r.ReadHeader()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Title != h.Title || got.Duration != h.Duration || got.PacketAlign != h.PacketAlign {
		t.Fatalf("header mismatch: %+v vs %+v", got, h)
	}
	if len(got.Streams) != 3 || len(got.Scripts) != 3 {
		t.Fatalf("streams=%d scripts=%d, want 3,3", len(got.Streams), len(got.Scripts))
	}
	if got.Streams[0].Codec != "sim-mpeg4" || got.Streams[0].MaxSkew != 80*time.Millisecond {
		t.Fatalf("stream[0] = %+v", got.Streams[0])
	}
	if got.Scripts[1].Param != "slide02.png" || got.Scripts[1].At != 20*time.Second {
		t.Fatalf("script[1] = %+v", got.Scripts[1])
	}
}

func TestHeaderFlags(t *testing.T) {
	h := Header{Flags: FlagLive | FlagDRM}
	if !h.Live() || !h.DRM() {
		t.Fatal("flag accessors broken")
	}
	var plain Header
	if plain.Live() || plain.DRM() {
		t.Fatal("zero header reports flags")
	}
}

func TestHeaderValidate(t *testing.T) {
	good := sampleHeader()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	dup := sampleHeader()
	dup.Streams = append(dup.Streams, dup.Streams[0])
	if err := dup.Validate(); err == nil {
		t.Error("duplicate stream accepted")
	}
	badKind := sampleHeader()
	badKind.Streams[0].Kind = media.Kind(0)
	if err := badKind.Validate(); err == nil {
		t.Error("invalid stream kind accepted")
	}
	badScript := sampleHeader()
	badScript.Scripts[0].Type = ""
	if err := badScript.Validate(); err == nil {
		t.Error("empty script type accepted")
	}
	negDur := sampleHeader()
	negDur.Duration = -time.Second
	if err := negDur.Validate(); err == nil {
		t.Error("negative duration accepted")
	}
	negRate := sampleHeader()
	negRate.Streams[0].BitsPerSecond = -1
	if err := negRate.Validate(); err == nil {
		t.Error("negative bit rate accepted")
	}
	// Each rate is in range, their sum is not: a server summing them
	// would book a negative bandwidth.
	overflow := sampleHeader()
	overflow.Streams[0].BitsPerSecond = 1 << 62
	overflow.Streams[1].BitsPerSecond = 1 << 62
	if err := overflow.Validate(); !errors.Is(err, ErrLimit) {
		t.Errorf("summed bit rate past int64 = %v, want ErrLimit", err)
	}
	exact := sampleHeader()
	exact.Streams[0].BitsPerSecond = math.MaxInt64 - exact.Streams[1].BitsPerSecond
	if err := exact.Validate(); err != nil {
		t.Errorf("summed bit rate of exactly MaxInt64 refused: %v", err)
	}
}

func TestStreamByID(t *testing.T) {
	h := sampleHeader()
	if st, ok := h.StreamByID(media.StreamAudio); !ok || st.Codec != "sim-acelp" {
		t.Fatalf("StreamByID(audio) = %+v,%v", st, ok)
	}
	if _, ok := h.StreamByID(77); ok {
		t.Fatal("found non-existent stream")
	}
}

func TestFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range samplePackets() {
		if _, err := w.WritePacket(p); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if w.PacketCount() != 4 {
		t.Fatalf("PacketCount = %d, want 4", w.PacketCount())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	var got []Packet
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append(got, p.Clone())
	}
	want := samplePackets()
	if len(got) != len(want) {
		t.Fatalf("read %d packets, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Stream != want[i].Stream || got[i].PTS != want[i].PTS ||
			!bytes.Equal(got[i].Payload, want[i].Payload) || got[i].Flags != want[i].Flags {
			t.Errorf("packet %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
		if got[i].Seq != uint32(i) {
			t.Errorf("packet %d has seq %d", i, got[i].Seq)
		}
	}
	// The index lists the seek points: the two video keyframes. The audio
	// block at PTS 0 (seq 1) is flagged a keyframe too, but in a stream
	// with video it is no seek point.
	ix := Index{{PTS: 0, Seq: 0}, {PTS: 80 * time.Millisecond, Seq: 3}}
	if _, _, got, err := ReadAll(bytes.NewReader(buf.Bytes())); err != nil || !reflect.DeepEqual(got, ix) {
		t.Fatalf("ReadAll index = %+v, %v; want the seek points %+v", got, err, ix)
	}
	// A stored stream ends with its last packet: no index follows it.
	last := samplePackets()[3]
	last.Seq = 3
	if end, _ := EncodePacket(last); !bytes.HasSuffix(buf.Bytes(), end) {
		t.Fatal("stored stream does not end with its last packet")
	}
}

// TestSeekPoint: a stream starts at a video keyframe, or at an audio
// keyframe when its header declares no video stream; never at a slide
// image or a script command, though each is flagged a keyframe.
func TestSeekPoint(t *testing.T) {
	withVideo := sampleHeader()
	audioOnly := sampleHeader()
	audioOnly.Streams = audioOnly.Streams[1:]
	for _, tc := range []struct {
		kind         media.Kind
		flags        uint8
		video, audio bool // SeekPoint under withVideo, audioOnly
	}{
		{media.KindVideo, PacketKeyframe, true, true},
		{media.KindVideo, 0, false, false},
		{media.KindAudio, PacketKeyframe, false, true},
		{media.KindAudio, 0, false, false},
		{media.KindImage, PacketKeyframe, false, false},
		{media.KindScript, PacketKeyframe, false, false},
	} {
		p := Packet{Kind: tc.kind, Flags: tc.flags}
		if got := withVideo.SeekPoint(p); got != tc.video {
			t.Errorf("%v flags %d with video: SeekPoint = %v", tc.kind, tc.flags, got)
		}
		if got := audioOnly.SeekPoint(p); got != tc.audio {
			t.Errorf("%v flags %d without video: SeekPoint = %v", tc.kind, tc.flags, got)
		}
	}
}

func TestLiveStreamOmitsIndex(t *testing.T) {
	h := sampleHeader()
	h.Flags |= FlagLive
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WritePacket(samplePackets()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if last, _ := EncodePacket(samplePackets()[0]); !bytes.HasSuffix(buf.Bytes(), last) {
		t.Fatal("live stream does not end with its last packet: it has an index")
	}
}

// No writer keeps an index, so none grows with the length of a broadcast:
// a live or a stored writer costs as many allocations for a thousand
// keyframes as for one, and a stream fed keyframes through both write
// paths ends with its last packet.
func TestLiveWriterKeepsNoIndex(t *testing.T) {
	const keyframes = 1000
	key := func(i int) Packet {
		return Packet{Stream: 1, Kind: media.KindVideo, Flags: PacketKeyframe,
			PTS: time.Duration(i) * time.Second, Seq: uint32(i), Payload: []byte("key")}
	}
	sp, err := NewShared(key(0))
	if err != nil {
		t.Fatal(err)
	}
	live := sampleHeader()
	live.Flags |= FlagLive
	for _, h := range []Header{live, sampleHeader()} {
		var buf bytes.Buffer
		buf.Grow(1<<10 + keyframes*len(sp.wire))
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(10, func() {
				buf.Reset()
				w, _ := NewWriter(&buf, h)
				for i := 0; i < n; i++ {
					_ = w.WriteShared(sp)
				}
				_ = w.Close()
			})
		}
		if one, many := allocs(1), allocs(keyframes); many != one {
			t.Fatalf("live=%v: a writer allocates %.0f times for %d keyframes, %.0f for one", h.Live(), many, keyframes, one)
		}

		buf.Reset()
		w, err := NewWriter(&buf, h)
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		for i := 0; i < keyframes; i++ {
			if i%2 == 0 {
				_, err = w.WritePacket(key(i))
				last, _ = EncodePacket(key(i))
			} else {
				var sp *Shared
				if sp, err = NewShared(key(i)); err == nil {
					err = w.WriteShared(sp)
					last = sp.wire
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(buf.Bytes(), last) {
			t.Fatalf("live=%v: stream does not end with its last packet", h.Live())
		}
	}
}

func TestWriterClosedRejectsWrites(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WritePacket(samplePackets()[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v, want ErrClosed", err)
	}
}

func TestReadPacketBeforeHeader(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ReadPacket(); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("err = %v, want ErrNoHeader", err)
	}
}

func TestCorruptionDetection(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WritePacket(samplePackets()[0]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip a byte inside the payload (near the end of the buffer).
	data[len(data)-10] ^= 0xFF
	r := NewReader(bytes.NewReader(data))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted packet err = %v, want ErrChecksum", err)
	}
}

func TestBadMagicDetection(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOPE....")))
	if _, err := r.ReadHeader(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	h := sampleHeader()
	data, err := EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(data[:len(data)-5]))
	if _, err := r.ReadHeader(); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestPacketValidate(t *testing.T) {
	bad := []Packet{
		{Kind: media.Kind(0)},
		{Kind: media.KindVideo, PTS: -1},
		{Kind: media.KindVideo, Dur: -1},
		{Kind: media.KindVideo, SendAt: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad packet %d accepted", i)
		}
	}
}

func TestPacketFlagHelpers(t *testing.T) {
	p := Packet{Flags: PacketKeyframe}
	if !p.Keyframe() {
		t.Fatal("flag helpers broken")
	}
	p.Flags = PacketLast
	if p.Keyframe() {
		t.Fatal("flag helpers broken")
	}
}

func TestScriptPacketRoundTrip(t *testing.T) {
	cmd := ScriptCommand{At: 12 * time.Second, Type: "slide", Param: "intro.png"}
	pkt, err := ScriptPacket(cmd, media.StreamScript)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.PTS != cmd.At || pkt.SendAt != cmd.At || !pkt.Keyframe() {
		t.Fatalf("script packet timing wrong: %+v", pkt)
	}
	got, err := ParseScriptPacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != cmd {
		t.Fatalf("round trip = %+v, want %+v", got, cmd)
	}
}

func TestScriptPacketValidation(t *testing.T) {
	if _, err := ScriptPacket(ScriptCommand{Type: ""}, media.StreamScript); err == nil {
		t.Error("empty type accepted")
	}
	if _, err := ScriptPacket(ScriptCommand{Type: "x", At: -time.Second}, media.StreamScript); err == nil {
		t.Error("negative time accepted")
	}
	notScript := Packet{Kind: media.KindVideo}
	if _, err := ParseScriptPacket(notScript); err == nil {
		t.Error("non-script packet parsed")
	}
}
