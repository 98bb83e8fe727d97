package asf

import (
	"bytes"
	"testing"
)

// writerTrailer is what a Writer with header h writes after the wire
// images of packets: the index it collected over their keyframes.
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

// TestKeyIndexFromMatchesWriter: the index cut from a stream's KeyIndex
// at any packet is the one a Writer given the packets from there on
// closes with — for a stored header and, as none, for a live one.
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
	live := sampleHeader()
	live.Flags |= FlagLive
	for _, h := range []Header{sampleHeader(), live} {
		x := NewKeyIndex(h, packets)
		keys := 0 // keyframes before packet i
		for i := 0; i <= len(packets); i++ {
			want := writerTrailer(t, h, packets[i:])
			if got := x.From(keys); !bytes.Equal(got, want) {
				t.Fatalf("live=%v, from packet %d: From(%d) = %x, writer closes with %x", h.Live(), i, keys, got, want)
			}
			if i < len(packets) && packets[i].Keyframe() {
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
	x := NewKeyIndex(sampleHeader(), packets)
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
