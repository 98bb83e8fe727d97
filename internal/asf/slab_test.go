package asf

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// Owned packets are carved back to back from one slab buffer, each
// capacity-clipped: an append to one packet's Wire or Payload — which no
// caller may do, but a bug might — reallocates instead of writing into the
// packet carved behind it.
func TestSlabAppendCannotReachNeighbour(t *testing.T) {
	data, want, _ := windowFile(t, 3, 100)
	r := NewReader(bytes.NewReader(data))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	first, err := r.ReadShared()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.ReadShared()
	if err != nil {
		t.Fatal(err)
	}
	if buf := r.slab.buf; &buf[0] != &first.Wire()[0] || &buf[len(first.Wire())] != &second.Wire()[0] {
		t.Fatal("the first two owned packets are not neighbours in one slab buffer")
	}
	before := bytes.Clone(second.Wire())
	_ = append(first.Wire(), 0xEE, 0xEE, 0xEE, 0xEE)
	_ = append(first.Packet().Payload, 0xEE, 0xEE, 0xEE, 0xEE)
	if !bytes.Equal(second.Wire(), before) {
		t.Fatal("an append to the first packet wrote into the second")
	}
	if !reflect.DeepEqual(second.Packet(), want[1]) {
		t.Fatalf("second packet = %+v, want %+v", second.Packet(), want[1])
	}
}

// A stream several slab buffers long — slide-sized packets among ordinary
// ones, one larger than a whole buffer, objects straddling the window's
// fills — yields owned packets that all still equal what was written, and
// encode to their own wire images, once the reader is drained.
func TestSlabPacketsSurviveTheStream(t *testing.T) {
	data, want, _ := windowFile(t, 64, 1200, 37, 0, 1399, 20<<10, 1200, byteSlab+5, 3000)
	if len(data) < 8*byteSlab {
		t.Fatalf("stream of %d bytes spans too few slab buffers", len(data))
	}
	r := NewReader(chunkReader{bytes.NewReader(data), 977})
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	var owned []*Shared
	for {
		sp, err := r.ReadShared()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		owned = append(owned, sp)
	}
	if len(owned) != len(want) {
		t.Fatalf("read %d packets, wrote %d", len(owned), len(want))
	}
	for i, sp := range owned {
		if !reflect.DeepEqual(sp.Packet(), want[i]) {
			t.Fatalf("packet %d (%d bytes) differs from what was written", i, len(want[i].Payload))
		}
		if canon, _ := EncodePacket(want[i]); !bytes.Equal(sp.Wire(), canon) {
			t.Fatalf("packet %d: wire image is not its encoding", i)
		}
	}
}

// An image of a quarter buffer or more that does not fit in what is left
// gets a buffer of its own and the current one stays open for the next
// image; a smaller one that does not fit starts a new buffer, and what it
// left behind is counted as tail.
func TestSlabBufferRule(t *testing.T) {
	var s Slab
	a := s.bytes(100)
	s.bytes(byteSlab - ownMin + 1 - len(a)) // fits: ownMin-1 bytes stay free
	big := s.bytes(ownMin)
	if len(big) != ownMin || cap(big) != ownMin {
		t.Fatalf("own buffer: len %d cap %d, want %d", len(big), cap(big), ownMin)
	}
	b := s.bytes(100)
	if &s.buf[0] != &a[0] || &s.buf[byteSlab-ownMin+1] != &b[0] {
		t.Fatal("the image after a large one did not go behind the one before it")
	}
	free := ownMin - 1 - 100
	if got := s.tail(); got != free {
		t.Fatalf("tail %d, want the open buffer's %d free bytes", got, free)
	}
	c := s.bytes(free + 1)
	if &s.buf[0] != &c[0] {
		t.Fatal("a small image that does not fit did not start a new buffer")
	}
	if got, want := s.tail(), free+byteSlab-len(c); got != want {
		t.Fatalf("tail %d, want %d", got, want)
	}
}
