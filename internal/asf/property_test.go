package asf

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/media"
)

var validKinds = []media.Kind{
	media.KindVideo, media.KindAudio, media.KindImage,
	media.KindText, media.KindAnnotation, media.KindScript,
}

func randomPacket(rng *rand.Rand) Packet {
	payload := make([]byte, rng.Intn(2048))
	rng.Read(payload)
	var flags uint8
	if rng.Intn(2) == 0 {
		flags |= PacketKeyframe
	}
	return Packet{
		Stream:  media.StreamID(rng.Intn(8)),
		Kind:    validKinds[rng.Intn(len(validKinds))],
		Flags:   flags,
		PTS:     time.Duration(rng.Int63n(int64(time.Hour))),
		Dur:     time.Duration(rng.Int63n(int64(time.Second))),
		SendAt:  time.Duration(rng.Int63n(int64(time.Hour))),
		Payload: payload,
	}
}

// TestPacketRoundTripProperty: every valid packet survives encode/decode
// byte-for-byte.
func TestPacketRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPacket(rng)
		p.Seq = rng.Uint32()
		data, err := EncodePacket(p)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		buf.Write(data)
		r := NewReader(&buf)
		r.hasHeader = true // bypass header for raw packet decoding
		got, err := r.ReadPacket()
		if err != nil {
			return false
		}
		return got.Stream == p.Stream && got.Kind == p.Kind && got.Flags == p.Flags &&
			got.PTS == p.PTS && got.Dur == p.Dur && got.SendAt == p.SendAt &&
			got.Seq == p.Seq && bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFileRoundTripProperty: random files (header + packets) survive a full
// write/read cycle and end with their last packet.
func TestFileRoundTripProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := Header{
			Title:       "prop",
			Duration:    time.Minute,
			PacketAlign: 1400,
			Streams: []StreamProps{
				{ID: 1, Kind: media.KindVideo, Codec: "c", BitsPerSecond: 1000},
			},
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, h)
		if err != nil {
			return false
		}
		count := int(n%32) + 1
		var last Packet
		for i := 0; i < count; i++ {
			last = randomPacket(rng)
			if last.Seq, err = w.WritePacket(last); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		if _, err := r.ReadHeader(); err != nil {
			return false
		}
		read := 0
		for {
			_, err := r.ReadPacket()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			read++
		}
		end, _ := EncodePacket(last)
		return read == count && bytes.HasSuffix(buf.Bytes(), end)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationNeverPanics: arbitrary prefixes of a valid file produce
// errors, never panics or bogus packets beyond the cut.
func TestTruncationNeverPanics(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range samplePackets() {
		if _, err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.ReadHeader(); err != nil {
			continue // truncated within header: fine
		}
		for {
			if _, err := r.ReadPacket(); err != nil {
				break // io.EOF or corruption error: both acceptable
			}
		}
	}
}

// TestRandomGarbageNeverPanics: feeding random bytes to the reader returns
// errors gracefully.
func TestRandomGarbageNeverPanics(t *testing.T) {
	prop := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		junk := make([]byte, int(size%4096))
		rng.Read(junk)
		r := NewReader(bytes.NewReader(junk))
		if _, err := r.ReadHeader(); err != nil {
			return true
		}
		for i := 0; i < 100; i++ {
			if _, err := r.ReadPacket(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
