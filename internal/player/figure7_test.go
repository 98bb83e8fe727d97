package player

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/netsim"
	"repro/internal/vclock"
)

// figure7Lecture encodes the Fig. 7 lecture: 10 s, 5 slides, seed 2002,
// sent 500 ms ahead of its presentation times.
func figure7Lecture(t *testing.T, profile string) []byte {
	t.Helper()
	p, err := codec.ByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "figure 7", Duration: 10 * time.Second, Profile: p, SlideCount: 5, Seed: 2002,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{LeadTime: 500 * time.Millisecond}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// playOverLink plays data in realtime as a student behind link would:
// the bytes arrive through a netsim.LinkReader and the player presents
// on the same virtual clock, prebuffering depth packets.
func playOverLink(t *testing.T, name string, data []byte, link netsim.Link, depth int) *Metrics {
	t.Helper()
	clk := vclock.NewVirtual()
	pl := New(Options{Clock: clk, Realtime: true, AnchorToFirstPacket: true, JitterBufferDepth: depth})
	body := netsim.NewLinkReader(bytes.NewReader(data), link.Clone(link.Seed), clk)
	done := make(chan struct{})
	var m *Metrics
	var err error
	go func() {
		defer close(done)
		m, err = pl.Play(body)
	}()
	driveClock(t, clk, done)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Logf("%-22s depth %2d: %3d stalls, max skew %v, %d slides, %d broken frames",
		name, depth, m.Stalls, m.MaxSkew, m.SlidesShown, m.BrokenFrames)
	return m
}

// TestFigure7OverLinks is the E7 experiment (Fig. 7) on the real player:
// the lecture's media and slide flips present on schedule over a LAN; a
// lossy link costs time, not frames, because it retransmits; and a
// profile richer than the link starves the player.
// TestJitterBufferAbsorbsLinkJitter is its jitter-buffer half.
func TestFigure7OverLinks(t *testing.T) {
	modem := figure7Lecture(t, "modem-56k")

	lan := playOverLink(t, "lan", modem, netsim.LinkLAN, 32)
	if lan.Stalls != 0 || lan.MaxSkew != 0 || lan.SlidesShown != 5 || lan.BrokenFrames != 0 {
		t.Errorf("LAN: %d stalls, max skew %v, %d slides, %d broken frames; want 0, 0, 5, 0",
			lan.Stalls, lan.MaxSkew, lan.SlidesShown, lan.BrokenFrames)
	}

	wifi := playOverLink(t, "lossy wifi", modem, netsim.LinkLossyWiFi, 32)
	if wifi.Stalls != 0 || wifi.BrokenFrames != 0 {
		t.Errorf("lossy WiFi: %d stalls, %d broken frames; want 0, 0", wifi.Stalls, wifi.BrokenFrames)
	}

	starved := playOverLink(t, "dsl-300k over modem", figure7Lecture(t, "dsl-300k"), netsim.LinkModem56k, 32)
	if starved.Stalls == 0 {
		t.Error("a dsl-300k lecture over a 56k modem never stalled")
	}
	if starved.MaxSkew <= lan.MaxSkew {
		t.Errorf("starved max skew %v not above the LAN's %v", starved.MaxSkew, lan.MaxSkew)
	}
}

// TestJitterBufferAbsorbsLinkJitter plays the Fig. 7 lecture over a DSL
// line: without a jitter buffer its jitter stalls the player, and a
// 32-packet buffer absorbs it.
func TestJitterBufferAbsorbsLinkJitter(t *testing.T) {
	modem := figure7Lecture(t, "modem-56k")
	bare := playOverLink(t, "dsl", modem, netsim.LinkDSL, 0)
	buffered := playOverLink(t, "dsl", modem, netsim.LinkDSL, 32)
	if bare.Stalls == 0 {
		t.Error("DSL without a jitter buffer never stalled")
	}
	if buffered.Stalls != 0 {
		t.Errorf("DSL with a 32-packet jitter buffer stalled %d times", buffered.Stalls)
	}
	if buffered.MaxSkew > bare.MaxSkew {
		t.Errorf("buffered max skew %v above unbuffered %v", buffered.MaxSkew, bare.MaxSkew)
	}
}
