package player

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
)

func testLectureBytes(t testing.TB, dur time.Duration, cfg encoder.Config) ([]byte, *capture.Lecture) {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "player test", Duration: dur, Profile: p, SlideCount: 3,
		AnnotationEvery: dur / 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, cfg, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), lec
}

func TestPlayStoredLecture(t *testing.T) {
	data, lec := testLectureBytes(t, 3*time.Second, encoder.Config{})
	pl := New(Options{}) // arrival-order playback
	m, err := pl.Play(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m.VideoFrames != len(lec.Video) {
		t.Errorf("video frames = %d, want %d", m.VideoFrames, len(lec.Video))
	}
	if m.AudioBlocks != len(lec.Audio) {
		t.Errorf("audio blocks = %d, want %d", m.AudioBlocks, len(lec.Audio))
	}
	if m.SlidesShown != 3 {
		t.Errorf("slides shown = %d, want 3", m.SlidesShown)
	}
	if m.Annotations != 1 {
		t.Errorf("annotations = %d, want 1", m.Annotations)
	}
	if m.Decodable != len(lec.Video) || m.BrokenFrames != 0 {
		t.Errorf("decodable = %d broken = %d", m.Decodable, m.BrokenFrames)
	}
	if m.BytesRead == 0 {
		t.Error("no bytes accounted")
	}
}

func TestSlideFlipOrderMatchesLecture(t *testing.T) {
	data, lec := testLectureBytes(t, 3*time.Second, encoder.Config{})
	pl := New(Options{})
	m, err := pl.Play(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	flips := m.SlideEvents()
	if len(flips) != len(lec.Slides) {
		t.Fatalf("flips = %d, want %d", len(flips), len(lec.Slides))
	}
	for i, f := range flips {
		if f.Param != lec.Slides[i].Name {
			t.Errorf("flip %d shows %q, want %q", i, f.Param, lec.Slides[i].Name)
		}
		if f.PTS != lec.Slides[i].At {
			t.Errorf("flip %d at PTS %v, want %v", i, f.PTS, lec.Slides[i].At)
		}
	}
}

func TestDRMEnforcement(t *testing.T) {
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "drm", Duration: time.Second, Profile: p, SlideCount: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{DRM: true}, &buf); err != nil {
		t.Fatal(err)
	}
	pl := New(Options{})
	if _, err := pl.Play(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrDRMNotLicensed) {
		t.Fatalf("unlicensed play = %v, want ErrDRMNotLicensed", err)
	}
	licensed := New(Options{LicenseDRM: true})
	if _, err := licensed.Play(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("licensed play failed: %v", err)
	}
}

func TestJitterBufferDepthConsumesAll(t *testing.T) {
	data, lec := testLectureBytes(t, 2*time.Second, encoder.Config{})
	for _, depth := range []int{0, 1, 16, 10_000} {
		pl := New(Options{JitterBufferDepth: depth})
		m, err := pl.Play(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if m.VideoFrames != len(lec.Video) {
			t.Fatalf("depth %d: video frames = %d, want %d", depth, m.VideoFrames, len(lec.Video))
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EventSlideShown.String() != "slide" || EventStall.String() != "stall" {
		t.Fatal("event names wrong")
	}
	if got := EventKind(42).String(); got != "event(42)" {
		t.Fatalf("unknown = %q", got)
	}
}

func TestSkewHelpers(t *testing.T) {
	e := Event{PTS: time.Second, At: 1200 * time.Millisecond}
	if e.Skew() != 200*time.Millisecond {
		t.Fatalf("Skew = %v", e.Skew())
	}
	m := &Metrics{MaxSkew: 50 * time.Millisecond}
	if !m.SkewWithin(80 * time.Millisecond) {
		t.Fatal("SkewWithin false negative")
	}
	if m.SkewWithin(10 * time.Millisecond) {
		t.Fatal("SkewWithin false positive")
	}
}

func TestPlayTruncatedStreamReturnsError(t *testing.T) {
	data, _ := testLectureBytes(t, time.Second, encoder.Config{})
	pl := New(Options{})
	// Cut mid-packet (not at a boundary): the player must surface an error
	// or a clean EOF, never panic.
	_, err := pl.Play(bytes.NewReader(data[:len(data)*2/3]))
	_ = err // both nil (clean cut) and error (mid-packet) are acceptable
}
