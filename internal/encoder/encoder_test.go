package encoder

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/media"
)

func testProfile(t *testing.T) codec.Profile {
	t.Helper()
	p, err := codec.ByName("isdn-128k")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testLecture(t *testing.T) *capture.Lecture {
	t.Helper()
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title:           "Encoder test lecture",
		Duration:        20 * time.Second,
		Profile:         testProfile(t),
		SlideCount:      4,
		AnnotationEvery: 9 * time.Second,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lec
}

func TestConfigValidate(t *testing.T) {
	good := Config{Profile: testProfile(t)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Profile: testProfile(t), LeadTime: -time.Second},
		{Profile: testProfile(t), Scripts: []asf.ScriptCommand{{Type: ""}}},
		{Profile: testProfile(t), Scripts: []asf.ScriptCommand{{Type: "x", At: -1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEncodeToRequiresSource(t *testing.T) {
	sess, err := New(Config{Profile: testProfile(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.EncodeTo(io.Discard); !errors.Is(err, ErrNoSource) {
		t.Fatalf("err = %v, want ErrNoSource", err)
	}
}

func TestEncodeCameraAndMic(t *testing.T) {
	p := testProfile(t)
	sess, err := New(Config{Title: "AV", Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	cam, err := capture.NewCamera(p, 4*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	mic, err := capture.NewMicrophone(p, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sess.AddSource(cam)
	sess.AddSource(mic)

	var buf bytes.Buffer
	stats, err := sess.EncodeTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VideoPackets != 4*p.FrameRate {
		t.Errorf("video packets = %d, want %d", stats.VideoPackets, 4*p.FrameRate)
	}
	if stats.AudioPackets != int(4*time.Second/p.AudioBlock) {
		t.Errorf("audio packets = %d", stats.AudioPackets)
	}
	// The 15 fps frame interval does not divide 4 s exactly; the encoded
	// duration is within one frame interval of the nominal length.
	if diff := 4*time.Second - stats.Duration; diff < 0 || diff > p.FrameInterval() {
		t.Errorf("duration = %v, want within one frame of 4s", stats.Duration)
	}
	// Achieved rate near the profile's total.
	got := stats.BitsPerSecond()
	want := p.TotalBitsPerSecond()
	if got < want*7/10 || got > want*13/10 {
		t.Errorf("achieved %d bps, profile %d bps", got, want)
	}

	// The produced file parses and the streams are declared.
	r := asf.NewReader(bytes.NewReader(buf.Bytes()))
	h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.StreamByID(media.StreamVideo); !ok {
		t.Error("video stream not declared")
	}
	if _, ok := h.StreamByID(media.StreamAudio); !ok {
		t.Error("audio stream not declared")
	}
	if h.Live() {
		t.Error("stored session marked live")
	}
}

func TestEncodeSendTimesMonotone(t *testing.T) {
	lec := testLecture(t)
	var buf bytes.Buffer
	if _, err := EncodeLecture(lec, Config{LeadTime: time.Second}, &buf); err != nil {
		t.Fatal(err)
	}
	r := asf.NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.SendAt < prev {
			t.Fatalf("send time went backwards: %v after %v", p.SendAt, prev)
		}
		prev = p.SendAt
	}
}

func TestEncodeLectureFull(t *testing.T) {
	lec := testLecture(t)
	var buf bytes.Buffer
	stats, err := EncodeLecture(lec, Config{LeadTime: 500 * time.Millisecond}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ImagePackets != 4 {
		t.Errorf("image packets = %d, want 4", stats.ImagePackets)
	}
	r := asf.NewReader(bytes.NewReader(buf.Bytes()))
	h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	// Scripts: 4 slide flips + 2 annotations, sorted by time.
	if len(h.Scripts) != 6 {
		t.Fatalf("scripts = %d, want 6", len(h.Scripts))
	}
	for i := 1; i < len(h.Scripts); i++ {
		if h.Scripts[i].At < h.Scripts[i-1].At {
			t.Fatal("header scripts not sorted")
		}
	}
	if h.Title != lec.Title {
		t.Errorf("title = %q", h.Title)
	}
	// Stored lecture session: scripts in header, no in-band script packets.
	if stats.ScriptPkts != 0 {
		t.Errorf("stored session wrote %d in-band scripts", stats.ScriptPkts)
	}
}

func TestEncodeLiveEmitsInBandScripts(t *testing.T) {
	lec := testLecture(t)
	var buf bytes.Buffer
	stats, err := EncodeLecture(lec, Config{Live: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScriptPkts != 6 {
		t.Fatalf("live session wrote %d in-band scripts, want 6", stats.ScriptPkts)
	}
	r := asf.NewReader(bytes.NewReader(buf.Bytes()))
	h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Live() {
		t.Fatal("live flag not set")
	}
	// A live stream's header and packets are the whole stream.
	end, err := asf.EncodeHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	n := len(end)
	for {
		sp, err := r.ReadShared()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n += len(sp.Wire())
	}
	if n != buf.Len() {
		t.Fatalf("live stream is %d bytes, its header and packets %d: it has an index", buf.Len(), n)
	}
}

func TestEncodeDRMFlag(t *testing.T) {
	p := testProfile(t)
	sess, err := New(Config{Profile: p, DRM: true})
	if err != nil {
		t.Fatal(err)
	}
	mic, err := capture.NewMicrophone(p, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sess.AddSource(mic)
	var buf bytes.Buffer
	if _, err := sess.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := asf.NewReader(bytes.NewReader(buf.Bytes()))
	h, err := r.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	if !h.DRM() {
		t.Fatal("DRM flag lost")
	}
}

func TestLastPacketFlags(t *testing.T) {
	lec := testLecture(t)
	var buf bytes.Buffer
	if _, err := EncodeLecture(lec, Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	r := asf.NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	lastSeen := make(map[media.StreamID]bool)
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if lastSeen[p.Stream] {
			t.Fatalf("packet after PacketLast on stream %d", p.Stream)
		}
		if p.Flags&asf.PacketLast != 0 {
			lastSeen[p.Stream] = true
		}
	}
	for _, id := range []media.StreamID{media.StreamVideo, media.StreamAudio, media.StreamImage} {
		if !lastSeen[id] {
			t.Errorf("stream %d never marked last", id)
		}
	}
}

func TestNewSampleSource(t *testing.T) {
	samples := []media.Sample{
		{Stream: media.StreamVideo, Kind: media.KindVideo, PTS: 0, Duration: time.Second, Data: []byte{1}},
	}
	src := NewSampleSource(media.KindVideo, samples)
	if src.Kind() != media.KindVideo {
		t.Fatal("kind wrong")
	}
	s, ok := src.Next()
	if !ok || s.PTS != 0 {
		t.Fatal("first sample wrong")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source produced")
	}
	// Mutating the input after construction must not affect the source.
	samples[0].Data[0] = 99
}
