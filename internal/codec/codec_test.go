package codec

import (
	"testing"
	"time"
)

func TestLadderOrderedAndValid(t *testing.T) {
	ps := Ladder()
	if len(ps) < 5 {
		t.Fatalf("ladder has %d profiles, want at least 5", len(ps))
	}
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if i > 0 && ps[i].TotalBitsPerSecond() <= ps[i-1].TotalBitsPerSecond() {
			t.Errorf("ladder not strictly ascending at %s", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("dsl-300k")
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBitsPerSecond() != 300_000 {
		t.Fatalf("dsl-300k total = %d, want 300000", p.TotalBitsPerSecond())
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestForBandwidth(t *testing.T) {
	tests := []struct {
		bw   int64
		want string
	}{
		{10_000, "modem-28k"}, // below smallest: fall back to smallest
		{28_800, "modem-28k"},
		{60_000, "modem-56k"},
		{400_000, "dsl-300k"},
		{100_000_000, "lan-10m"},
	}
	for _, tt := range tests {
		if got := ForBandwidth(tt.bw); got.Name != tt.want {
			t.Errorf("ForBandwidth(%d) = %s, want %s", tt.bw, got.Name, tt.want)
		}
	}
}

func TestQualityMonotoneInLadder(t *testing.T) {
	ps := Ladder()
	for i := 1; i < len(ps); i++ {
		qPrev, q := ps[i-1].Quality(), ps[i].Quality()
		if q < qPrev-0.5 {
			t.Errorf("quality dropped from %s (%.1f dB) to %s (%.1f dB)",
				ps[i-1].Name, qPrev, ps[i].Name, q)
		}
	}
	// Rough calibration bounds.
	if q := ps[0].Quality(); q < 25 || q > 40 {
		t.Errorf("lowest profile quality %.1f dB outside [25,40]", q)
	}
	if q := ps[len(ps)-1].Quality(); q < 38 || q > 50 {
		t.Errorf("highest profile quality %.1f dB outside [38,50]", q)
	}
}

func TestProfileValidate(t *testing.T) {
	good, _ := ByName("dsl-300k")
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.VideoBitsPerSecond = 0 },
		func(p *Profile) { p.AudioBitsPerSecond = 0 },
		func(p *Profile) { p.Width = 0 },
		func(p *Profile) { p.FrameRate = 0 },
		func(p *Profile) { p.GOPFrames = 0 },
		func(p *Profile) { p.AudioBlock = 0 },
	}
	for i, mutate := range bad {
		p := good
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestVideoEncoderRateControl(t *testing.T) {
	p, _ := ByName("dsl-300k")
	enc, err := NewVideoEncoder(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := enc.EncodeDuration(10 * time.Second)
	wantFrames := 10 * p.FrameRate
	if len(samples) != wantFrames {
		t.Fatalf("encoded %d frames, want %d", len(samples), wantFrames)
	}
	var total int64
	for _, s := range samples {
		total += int64(len(s.Data))
	}
	gotBps := total * 8 / 10
	// Rate control within ±20% of the video budget.
	lo, hi := p.VideoBitsPerSecond*8/10, p.VideoBitsPerSecond*12/10
	if gotBps < lo || gotBps > hi {
		t.Fatalf("measured %d bps, want within [%d,%d]", gotBps, lo, hi)
	}
}

func TestVideoEncoderGOPStructure(t *testing.T) {
	p, _ := ByName("isdn-128k")
	enc, err := NewVideoEncoder(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	samples := enc.EncodeDuration(10 * time.Second)
	for i, s := range samples {
		wantKey := i%p.GOPFrames == 0
		if s.Keyframe != wantKey {
			t.Fatalf("frame %d keyframe=%v, want %v", i, s.Keyframe, wantKey)
		}
		info, err := DecodeVideoFrame(s.Data)
		if err != nil {
			t.Fatalf("frame %d undecodable: %v", i, err)
		}
		if info.Index != uint32(i) {
			t.Fatalf("frame %d carries index %d", i, info.Index)
		}
	}
	// I-frames are materially larger than neighboring P-frames.
	iBytes := len(samples[0].Data)
	pBytes := len(samples[1].Data)
	if iBytes < 3*pBytes {
		t.Fatalf("I-frame %dB not >> P-frame %dB", iBytes, pBytes)
	}
}

func TestVideoEncoderDeterministic(t *testing.T) {
	p, _ := ByName("dsl-300k")
	a, _ := NewVideoEncoder(p, 42)
	b, _ := NewVideoEncoder(p, 42)
	for i := 0; i < 50; i++ {
		sa, sb := a.NextFrame(), b.NextFrame()
		if len(sa.Data) != len(sb.Data) || sa.PTS != sb.PTS {
			t.Fatalf("frame %d differs across identical seeds", i)
		}
	}
}

func TestVideoEncoderTimestamps(t *testing.T) {
	p, _ := ByName("dsl-300k")
	enc, _ := NewVideoEncoder(p, 1)
	s0, s1 := enc.NextFrame(), enc.NextFrame()
	if s0.PTS != 0 || s1.PTS != p.FrameInterval() {
		t.Fatalf("PTS sequence %v,%v", s0.PTS, s1.PTS)
	}
	if s0.Duration != p.FrameInterval() {
		t.Fatalf("frame duration %v, want %v", s0.Duration, p.FrameInterval())
	}
}

func TestNewVideoEncoderRejectsBadProfile(t *testing.T) {
	if _, err := NewVideoEncoder(Profile{}, 0); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestDecodeVideoFrameErrors(t *testing.T) {
	if _, err := DecodeVideoFrame([]byte{1, 2}); err != ErrTruncatedFrame {
		t.Fatalf("short frame err = %v", err)
	}
	p, _ := ByName("dsl-300k")
	enc, _ := NewVideoEncoder(p, 1)
	frame := enc.NextFrame().Data
	frame[4] = 'X' // invalid type
	if _, err := DecodeVideoFrame(frame); err == nil {
		t.Fatal("corrupt type accepted")
	}
	frame[4] = 'I'
	short := frame[:len(frame)-3] // body length mismatch
	if _, err := DecodeVideoFrame(short); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestVideoDecoderLossChains(t *testing.T) {
	p, _ := ByName("isdn-128k")
	enc, _ := NewVideoEncoder(p, 3)
	samples := enc.EncodeDuration(10 * time.Second) // 150 frames, GOP 75

	var dec VideoDecoder
	for i, s := range samples {
		if i == 10 { // lose one P-frame early in GOP 1
			dec.Lose()
			continue
		}
		dec.Feed(s.Data)
	}
	if dec.Total() != len(samples) {
		t.Fatalf("decoder accounted %d frames, want %d", dec.Total(), len(samples))
	}
	// Frames 11..74 are broken (chain), frame 75 (next I) recovers.
	wantBroken := 1 + (75 - 11)
	if dec.Broken != wantBroken {
		t.Fatalf("Broken = %d, want %d", dec.Broken, wantBroken)
	}
	if dec.Decodable != len(samples)-wantBroken {
		t.Fatalf("Decodable = %d, want %d", dec.Decodable, len(samples)-wantBroken)
	}
}

// TestVideoDecoderSeesMissingFrame: a P-frame whose predecessor never
// arrived is broken even when no one called Lose, and so is every frame
// up to the next I-frame; the decoder sees the gap in the frame indexes.
func TestVideoDecoderSeesMissingFrame(t *testing.T) {
	p, _ := ByName("isdn-128k")
	enc, _ := NewVideoEncoder(p, 3)
	samples := enc.EncodeDuration(10 * time.Second) // 150 frames, GOP 75

	var dec VideoDecoder
	for i, s := range samples {
		if i != 10 { // frame 10 is lost in transport
			dec.Feed(s.Data)
		}
	}
	// Frames 11..74 are broken, frame 75 (next I) recovers.
	if wantBroken := 75 - 11; dec.Broken != wantBroken || dec.Decodable != len(samples)-1-wantBroken {
		t.Fatalf("Broken = %d, Decodable = %d; want %d, %d", dec.Broken, dec.Decodable, wantBroken, len(samples)-1-wantBroken)
	}
}

func TestVideoDecoderCorruptFeed(t *testing.T) {
	var dec VideoDecoder
	dec.Feed([]byte{0xde, 0xad})
	if dec.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", dec.Corrupt)
	}
}

func TestAudioEncoderCBR(t *testing.T) {
	p, _ := ByName("dsl-300k")
	enc, err := NewAudioEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	blocks := enc.EncodeDuration(10 * time.Second)
	wantBlocks := int(10 * time.Second / p.AudioBlock)
	if len(blocks) != wantBlocks {
		t.Fatalf("%d blocks, want %d", len(blocks), wantBlocks)
	}
	var total int64
	for i, b := range blocks {
		if len(b.Data) != enc.BlockBytes() {
			t.Fatalf("block %d has %d bytes, want constant %d", i, len(b.Data), enc.BlockBytes())
		}
		idx, err := DecodeAudioBlock(b.Data)
		if err != nil {
			t.Fatalf("block %d undecodable: %v", i, err)
		}
		if idx != uint32(i) {
			t.Fatalf("block %d carries index %d", i, idx)
		}
		if !b.Keyframe {
			t.Fatalf("audio block %d not a keyframe", i)
		}
		total += int64(len(b.Data))
	}
	gotBps := total * 8 / 10
	lo, hi := p.AudioBitsPerSecond*9/10, p.AudioBitsPerSecond*11/10
	if gotBps < lo || gotBps > hi {
		t.Fatalf("audio rate %d bps outside [%d,%d]", gotBps, lo, hi)
	}
}

func TestDecodeAudioBlockErrors(t *testing.T) {
	if _, err := DecodeAudioBlock([]byte{1}); err != ErrTruncatedBlock {
		t.Fatalf("short block err = %v", err)
	}
	p, _ := ByName("dsl-300k")
	enc, _ := NewAudioEncoder(p)
	data := enc.NextBlock().Data
	if _, err := DecodeAudioBlock(data[:len(data)-1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestNewAudioEncoderRejectsBadProfile(t *testing.T) {
	if _, err := NewAudioEncoder(Profile{}); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestSortByRate(t *testing.T) {
	ps := Ladder()
	// Reverse, then sort.
	for i, j := 0, len(ps)-1; i < j; i, j = i+1, j-1 {
		ps[i], ps[j] = ps[j], ps[i]
	}
	SortByRate(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i].TotalBitsPerSecond() < ps[i-1].TotalBitsPerSecond() {
			t.Fatal("SortByRate failed")
		}
	}
}
