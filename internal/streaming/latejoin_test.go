package streaming

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/media"
	"repro/internal/player"
)

// TestLateJoinDecodesCleanly reproduces the paper's mid-broadcast join:
// a student who joins a live channel halfway through must receive a
// keyframe-aligned backlog so their decoder starts without broken frames,
// and must still see every remaining slide flip via in-band scripts.
func TestLateJoinDecodesCleanly(t *testing.T) {
	// Encode a live lecture and split its packets in half.
	data := encodeLiveLecture(t)
	h, packets, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	half := len(packets) / 2

	ch, err := NewChannel("late", h)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packets[:half] {
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	// The student joins now.
	sub, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, p := range packets[half:] {
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
	ch.Close()

	// Assemble the student's byte stream: the channel's header, then the
	// wire image of each packet the subscriber was handed — the catch-up
	// from its join, then live.
	stream := bytes.Clone(ch.wireHeader)
	var received []asf.Packet
	for sp := range sub.C {
		received = append(received, sp.Packet())
		stream = append(stream, sp.Wire()...)
	}
	if err := check.LiveBody(ch.wireHeader, bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}

	if len(received) <= len(packets)-half {
		t.Fatal("late joiner received no catch-up backlog")
	}
	// The catch-up must start at a video keyframe.
	first := received[0]
	if !(first.Keyframe() && first.Kind == media.KindVideo) {
		t.Fatalf("backlog starts with %v keyframe=%v", first.Kind, first.Keyframe())
	}

	// Play the joined-late stream: zero broken frames (the chain starts at
	// an I-frame) and at least the remaining slide flips.
	m, err := player.New(player.Options{}).Play(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if m.BrokenFrames != 0 {
		t.Fatalf("late joiner decoded %d broken frames", m.BrokenFrames)
	}
	if m.VideoFrames == 0 {
		t.Fatal("late joiner saw no video")
	}
	if m.SlidesShown == 0 {
		t.Fatal("late joiner saw no slide flips (in-band scripts missing)")
	}
}

// TestAudioOnlyBacklogStaysBounded: a broadcast with no video stream —
// what the publish manager makes of a lecture without video samples —
// starts its catch-up backlog at audio keyframes, so a late joiner is
// replayed the latest audio block, not the whole broadcast, however long
// it has run.
func TestAudioOnlyBacklogStaysBounded(t *testing.T) {
	h := asf.Header{Title: "audio only", Streams: []asf.StreamProps{
		{ID: media.StreamAudio, Kind: media.KindAudio, Codec: "sim-acelp"},
		{ID: media.StreamImage, Kind: media.KindImage, Codec: "png"},
	}}
	ch, err := NewChannel("radio", h)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 1000
	for i := 0; i < blocks; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		if err := ch.Publish(asf.Packet{Stream: media.StreamAudio, Kind: media.KindAudio, Flags: asf.PacketKeyframe,
			PTS: at, Dur: 100 * time.Millisecond, SendAt: at, Seq: uint32(i), Payload: []byte("block")}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(ch.log); n > logKeep {
		t.Fatalf("the log holds %d packets after %d audio keyframes, want at most %d", n, blocks, logKeep)
	}
	sub, err := ch.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ch.Close()
	var seqs []uint32
	for sp := range sub.C {
		seqs = append(seqs, sp.Packet().Seq)
	}
	if len(seqs) != 1 || seqs[0] != blocks-1 {
		t.Fatalf("late joiner is replayed %d packets after %d audio keyframes, want the last one", len(seqs), blocks)
	}
}

func encodeLiveLecture(t *testing.T) []byte {
	t.Helper()
	p, err := codec.ByName("isdn-128k")
	if err != nil {
		t.Fatal(err)
	}
	// 10 s at GOP 75/15fps gives a keyframe at 0 s and 5 s: joining after
	// half the packets lands inside GOP 2, whose keyframe heads the
	// backlog.
	lec, err := lectureForProfile(t, p, 10*time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	return lec
}
