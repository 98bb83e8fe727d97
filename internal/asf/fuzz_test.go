package asf

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/media"
)

// FuzzReader feeds arbitrary bytes to the container reader; it must never
// panic or allocate unboundedly, only return errors or packets. It is a
// differential between the two read forms over the same bytes cut up
// differently — ReadShared over the whole input, ReadPacket over a source
// that yields at most chunk bytes a read, so objects straddle its fills:
// the borrowed packet, compared before the next read overwrites it, and
// the owned one agree on every field and payload byte, both refuse the
// rest with the same error, and every accepted wire image is the
// canonical encoding of its packet — what a relay forwards is what an
// encoder would have written. The owned packets are kept until the stream
// ends and checked again then: no later read into the same slab wrote
// over one, and split into runs (Run) they write the same bytes as one
// by one.
func FuzzReader(f *testing.F) {
	// Seed with a valid small file.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{
		Title: "seed",
		Streams: []StreamProps{
			{ID: media.StreamVideo, Kind: media.KindVideo, Codec: "c", BitsPerSecond: 1000},
		},
		Scripts: []ScriptCommand{{At: time.Second, Type: "slide", Param: "s.png"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	for i, payload := range []string{"data", "more data", ""} {
		if _, err := w.WritePacket(Packet{
			Stream: media.StreamVideo, Kind: media.KindVideo, Flags: PacketKeyframe,
			PTS: time.Duration(i+1) * time.Second, Payload: []byte(payload),
		}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint16(0))
	f.Add(withLegacyIndex(f, buf.Bytes()), uint16(4))
	f.Add([]byte("WMP1"), uint16(3))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		r := NewReader(chunkReader{bytes.NewReader(data), int(chunk) + 1})
		rs := NewReader(bytes.NewReader(data))
		_, err := r.ReadHeader()
		if _, errS := rs.ReadHeader(); errorText(err) != errorText(errS) {
			t.Fatalf("header: chunked %v, whole %v", err, errS)
		}
		if err != nil {
			return
		}
		type kept struct {
			sp    *Shared
			p     Packet // the lent packet, cloned
			canon []byte
		}
		var owned []kept
		for i := 0; i < 1000; i++ {
			p, err := r.ReadPacket()
			sp, errS := rs.ReadShared()
			if errorText(err) != errorText(errS) {
				t.Fatalf("packet %d: ReadPacket %v, ReadShared %v", i, err, errS)
			}
			if err != nil {
				break
			}
			if !reflect.DeepEqual(p, sp.Packet()) {
				t.Fatalf("packet %d: ReadPacket %+v, ReadShared %+v", i, p, sp.Packet())
			}
			canon, err := EncodePacket(sp.Packet())
			if err != nil {
				t.Fatalf("packet %d accepted but not encodable: %v", i, err)
			}
			if !bytes.Equal(sp.Wire(), canon) {
				t.Fatalf("packet %d: forwarded image is not the canonical encoding", i)
			}
			owned = append(owned, kept{sp, p.Clone(), canon})
		}
		sps := make([]*Shared, len(owned))
		for i, k := range owned {
			if !reflect.DeepEqual(k.p, k.sp.Packet()) || !bytes.Equal(k.sp.Wire(), k.canon) {
				t.Fatalf("owned packet %d changed after later reads", i)
			}
			sps[i] = k.sp
		}
		checkRuns(t, sps)
	})
}

func errorText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzScriptPacket feeds arbitrary payloads to the script parser.
func FuzzScriptPacket(f *testing.F) {
	good, err := encodeScriptPayload(ScriptCommand{At: time.Second, Type: "slide", Param: "x"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, payload []byte) {
		pkt := Packet{Kind: media.KindScript, PTS: time.Second, Payload: payload}
		_, _ = ParseScriptPacket(pkt)
	})
}
