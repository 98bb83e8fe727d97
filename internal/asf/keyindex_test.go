package asf

import (
	"bytes"
	"testing"
)

// writerTrailer is what a Writer with header h writes after the wire
// images of packets: the index it collected over their seek points.
func writerTrailer(t *testing.T, h Header, packets []*Shared) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	for _, sp := range packets {
		if err := w.WriteShared(sp); err != nil {
			t.Fatal(err)
		}
	}
	before := buf.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[before:]
}

// seekPoints is the index of the packets' seek points under header h.
func seekPoints(h Header, packets []*Shared) Index {
	var ix Index
	for _, sp := range packets {
		if p := sp.Packet(); h.SeekPoint(p) {
			ix = append(ix, IndexEntry{PTS: p.PTS, Seq: p.Seq})
		}
	}
	return ix
}

// TestKeyIndexFromMatchesWriter: the index cut from a stream's KeyIndex
// at any packet is the one a Writer given the packets from there on
// closes with — for a stored header with video, one without (where audio
// keyframes are the seek points) and, as none, for a live one.
func TestKeyIndexFromMatchesWriter(t *testing.T) {
	var packets []*Shared
	for i, p := range append(samplePackets(), samplePackets()...) {
		p.Seq = uint32(i)
		sp, err := NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		packets = append(packets, sp)
	}
	audioOnly := sampleHeader()
	audioOnly.Streams = audioOnly.Streams[1:]
	live := sampleHeader()
	live.Flags |= FlagLive
	for _, h := range []Header{sampleHeader(), audioOnly, live} {
		x := NewKeyIndex(h, seekPoints(h, packets))
		keys := 0 // seek points before packet i
		for i := 0; i <= len(packets); i++ {
			want := writerTrailer(t, h, packets[i:])
			if got := x.From(keys); !bytes.Equal(got, want) {
				t.Fatalf("live=%v streams=%d, from packet %d: From(%d) = %x, writer closes with %x",
					h.Live(), len(h.Streams), i, keys, got, want)
			}
			if i < len(packets) && h.SeekPoint(packets[i].Packet()) {
				keys++
			}
		}
	}
}

// TestKeyIndexFromAllocs: the whole index is handed out as is, a suffix
// in one exactly sized allocation.
func TestKeyIndexFromAllocs(t *testing.T) {
	var packets []*Shared
	for _, p := range samplePackets() {
		sp, err := NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		packets = append(packets, sp)
	}
	x := NewKeyIndex(sampleHeader(), seekPoints(sampleHeader(), packets))
	if avg := testing.AllocsPerRun(100, func() { _ = x.From(0) }); avg != 0 {
		t.Fatalf("From(0) allocates %.0f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = x.From(1) }); avg != 1 {
		t.Fatalf("From(1) allocates %.0f times, want 1", avg)
	}
	if got := x.From(1); len(got) != cap(got) {
		t.Fatalf("From(1) is %d bytes of a %d-byte allocation", len(got), cap(got))
	}
}
