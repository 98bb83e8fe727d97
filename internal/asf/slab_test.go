package asf

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/media"
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
	data, want, _ := windowFile(t, 64, 1200, 37, 0, 1399, 20<<10, 1200, storedSlab+5, 3000)
	if len(data) < 8*storedSlab {
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

// A reader sizes its slab by the header — 64 KB buffers for a stored
// container, 16 KB for a live stream — and at either size an image of a
// quarter buffer or more that does not fit in what is left gets a buffer
// of its own and the current one stays open for the next image; a
// smaller one that does not fit starts a new buffer, and what it left
// behind is counted as tail. A carved image's capacity runs to the end
// of its buffer.
func TestSlabBufferRule(t *testing.T) {
	stored := sampleHeader()
	live := sampleHeader()
	live.Flags |= FlagLive
	for _, tc := range []struct {
		h    Header
		size int
	}{{stored, storedSlab}, {live, liveSlab}} {
		enc, err := EncodeHeader(tc.h)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(enc))
		if _, err := r.ReadHeader(); err != nil {
			t.Fatal(err)
		}
		s, size := &r.slab, tc.size
		if s.bufSize() != size {
			t.Fatalf("live %v: slab buffers of %d bytes, want %d", tc.h.Live(), s.bufSize(), size)
		}
		ownMin := size / 4
		a := s.bytes(100)
		if cap(a) != size {
			t.Fatalf("size %d: first image's capacity %d, want the whole buffer", size, cap(a))
		}
		s.bytes(size - ownMin + 1 - len(a)) // fits: ownMin-1 bytes stay free
		big := s.bytes(ownMin)
		if len(big) != ownMin || cap(big) != ownMin {
			t.Fatalf("size %d: own buffer: len %d cap %d, want %d", size, len(big), cap(big), ownMin)
		}
		b := s.bytes(100)
		if &s.buf[0] != &a[0] || &s.buf[size-ownMin+1] != &b[0] || cap(b) != ownMin-1 {
			t.Fatalf("size %d: the image after a large one did not go behind the one before it", size)
		}
		free := ownMin - 1 - 100
		if got := s.tail(); got != free {
			t.Fatalf("size %d: tail %d, want the open buffer's %d free bytes", size, got, free)
		}
		c := s.bytes(free + 1)
		if &s.buf[0] != &c[0] {
			t.Fatalf("size %d: a small image that does not fit did not start a new buffer", size)
		}
		if got, want := s.tail(), free+size-len(c); got != want {
			t.Fatalf("size %d: tail %d, want %d", size, got, want)
		}
	}
	var zero Slab
	if zero.bufSize() != liveSlab {
		t.Fatalf("the zero Slab carves %d-byte buffers, want %d", zero.bufSize(), liveSlab)
	}
}

// runPacket is a video packet whose payload is size bytes of fill.
func runPacket(size int, fill byte) Packet {
	return Packet{Stream: media.StreamVideo, Kind: media.KindVideo, Payload: bytes.Repeat([]byte{fill}, size)}
}

// checkRuns splits sps into runs and checks what every caller of Run
// relies on: each run is capacity-clipped, and the runs, written one
// after another, are the packets' wire images written one by one. It
// returns the runs' lengths.
func checkRuns(t *testing.T, sps []*Shared) []int {
	t.Helper()
	var got, want bytes.Buffer
	var lens []int
	for rest := sps; len(rest) > 0; {
		wire, n := Run(rest)
		if n < 1 || n > len(rest) {
			t.Fatalf("Run over %d packets took %d", len(rest), n)
		}
		if cap(wire) != len(wire) {
			t.Fatalf("run of %d images: len %d, cap %d; want it capacity-clipped", n, len(wire), cap(wire))
		}
		got.Write(wire)
		lens = append(lens, n)
		rest = rest[n:]
	}
	for _, sp := range sps {
		want.Write(sp.Wire())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the runs (%d bytes) are not the wire images one by one (%d bytes)", got.Len(), want.Len())
	}
	return lens
}

// A run is the images that lie back to back in one slab buffer. It breaks
// where a buffer ends, at an image with a buffer of its own, and at the
// image after one — here the image after the large one lies right behind
// the image before it, and still starts a run of its own. An image from
// NewShared is never part of a longer run, even between two images that
// are neighbours in a slab buffer.
func TestRunBoundaries(t *testing.T) {
	var s Slab // liveSlab buffers: own images from 4 KB
	var sps []*Shared
	carve := func(size int) {
		sp, err := s.NewShared(runPacket(size, byte(len(sps)+1)))
		if err != nil {
			t.Fatal(err)
		}
		sps = append(sps, sp)
	}
	carve(4000)
	carve(4000)
	carve(4000) // 4,258 bytes of the buffer stay free
	carve(5000) // a buffer of its own
	carve(1000) // behind the third image
	carve(1000)
	carve(3000) // does not fit: a new buffer
	carve(100)
	alone, err := NewShared(runPacket(100, byte(len(sps)+1)))
	if err != nil {
		t.Fatal(err)
	}
	sps = append(sps, alone)
	carve(100) // behind the image before alone

	behind := func(a, b *Shared) bool {
		return cap(a.wire) > len(a.wire) && &a.wire[:len(a.wire)+1][len(a.wire)] == &b.wire[0]
	}
	if !behind(sps[2], sps[4]) || !behind(sps[7], sps[9]) {
		t.Fatal("the images meant to be neighbours in a slab buffer are not")
	}
	if got, want := checkRuns(t, sps), []int{3, 1, 2, 2, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs of %v images, want %v", got, want)
	}
	// One image at a time, every image is a run of one.
	for i, sp := range sps {
		if wire, n := Run(sps[i : i+1]); n != 1 || !bytes.Equal(wire, sp.Wire()) {
			t.Fatalf("image %d alone: a run of %d images", i, n)
		}
	}
}
