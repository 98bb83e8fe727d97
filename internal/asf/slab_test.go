package asf

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/media"
)

// viewDiff says how sp's decoded view falls short of want, or "" when
// it does not: Packet must equal want field for field, and its Payload
// must be the wire image's tail, its capacity ending where the image
// does.
func viewDiff(sp *Shared, want Packet) string {
	got, wire := sp.Packet(), sp.Wire()
	switch {
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("view %+v, want %+v", got, want)
	case len(got.Payload) != len(wire)-packetWireSize || cap(got.Payload) != len(got.Payload):
		return fmt.Sprintf("payload len %d cap %d of a %d-byte image", len(got.Payload), cap(got.Payload), len(wire))
	case len(got.Payload) > 0 && &got.Payload[0] != &wire[packetWireSize]:
		return "payload does not alias the image's tail"
	}
	return ""
}

// A Shared is its wire image and nothing more: one slice header, whose
// decoded view equals the packet it was made from, whichever way it was
// made — encoded once (NewShared), carved from a slab (Slab.NewShared)
// or read off a stream (Reader.ReadShared).
func TestSharedIsItsImage(t *testing.T) {
	if got, want := unsafe.Sizeof(Shared{}), unsafe.Sizeof([]byte(nil)); got != want {
		t.Fatalf("a Shared is %d bytes, want one slice header's %d", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	pkts := samplePackets()
	for i := 0; i < 200; i++ {
		p := randomPacket(rng)
		p.Seq = rng.Uint32()
		pkts = append(pkts, p)
	}
	var slab Slab
	var stream bytes.Buffer
	w, err := NewWriter(&stream, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pkts {
		one, err := NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		carved, err := slab.NewShared(p)
		if err != nil {
			t.Fatal(err)
		}
		for form, sp := range map[string]*Shared{"NewShared": one, "Slab.NewShared": carved} {
			if d := viewDiff(sp, p); d != "" {
				t.Fatalf("packet %d from %s: %s", i, form, d)
			}
		}
		if _, err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&stream)
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pkts {
		sp, err := r.ReadShared()
		if err != nil {
			t.Fatal(err)
		}
		p.Seq = uint32(i) // the writer sequences what it writes
		if d := viewDiff(sp, p); d != "" {
			t.Fatalf("packet %d from ReadShared: %s", i, d)
		}
	}
}

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
	data, want, _ := windowFile(t, 64, 1200, 37, 0, 1399, 20<<10, 1200, SlabSize+5, 3000)
	if len(data) < 8*SlabSize {
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

// A reader carves 64 KB buffers for a stored container and a live stream
// alike, and so does the zero Slab. An image of a quarter buffer or more that does not fit in what is left gets a buffer
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
	}{{stored, SlabSize}, {live, SlabSize}} {
		enc, err := EncodeHeader(tc.h)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(enc))
		if _, err := r.ReadHeader(); err != nil {
			t.Fatal(err)
		}
		s, size := &r.slab, tc.size
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
		if got := cap(s.buf) - len(s.buf); got != free {
			t.Fatalf("size %d: %d bytes free in the open buffer, want %d", size, got, free)
		}
		c := s.bytes(free + 1)
		if &s.buf[0] != &c[0] {
			t.Fatalf("size %d: a small image that does not fit did not start a new buffer", size)
		}
		if got, want := cap(s.buf)-len(s.buf), size-len(c); got != want {
			t.Fatalf("size %d: %d bytes free in the new buffer, want %d", size, got, want)
		}
	}
	var zero Slab
	if got := cap(zero.bytes(1)); got != SlabSize {
		t.Fatalf("the zero Slab carves %d-byte buffers, want %d", got, SlabSize)
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
	var s Slab // own images from 16 KB
	var sps []*Shared
	carve := func(size int) {
		sp, err := s.NewShared(runPacket(size, byte(len(sps)+1)))
		if err != nil {
			t.Fatal(err)
		}
		sps = append(sps, sp)
	}
	carve(16000)
	carve(16000)
	carve(16000) // 17,410 bytes of the buffer stay free
	carve(20000) // a buffer of its own
	carve(4000)  // behind the third image
	carve(4000)
	carve(12000) // does not fit: a new buffer
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

// A slab hands Renew each buffer it leaves (nil before its first), and
// an owner that gives it back to its pool and takes the next from there
// has the slab carve it again, from its start, in place of a new one.
// Under asfpoison the rest of a buffer carved again reads 0xDB, not the
// images carved in it before.
func TestSlabRenew(t *testing.T) {
	var pool Pool
	pool.Get() // another owner's, so the pool lists what the slab gives back
	var left [][]byte
	s := Slab{Renew: func(buf []byte) []byte {
		left = append(left, buf)
		if buf != nil {
			pool.Put(buf)
		}
		return pool.Get()
	}}
	carve := func(fill byte) *Shared {
		sp, err := s.NewShared(runPacket(15000, fill))
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	first := carve(1)
	for fill := byte(2); fill <= 4; fill++ {
		carve(fill)
	}
	if len(left) != 1 || left[0] != nil {
		t.Fatalf("Renew saw %d buffers before the first was full; want only the nil before the first", len(left))
	}
	again := carve(5)
	if len(left) != 2 || &left[1][0] != &first.Wire()[0] || len(left[1]) != 4*len(first.Wire()) {
		t.Fatal("Renew was not handed the full buffer the slab left")
	}
	if &again.Wire()[0] != &first.Wire()[0] {
		t.Fatal("the image after a renewal was not carved at the start of the buffer the pool handed back")
	}
	if held, free, reused := pool.Stats(); held != 2 || free != 0 || reused != 1 {
		t.Fatalf("the pool holds %d, lists %d and reused %d; want 2, 0 and 1", held, free, reused)
	}
	if want, _ := EncodePacket(runPacket(15000, 5)); !bytes.Equal(again.Wire(), want) {
		t.Fatal("the image carved in a renewed buffer is not its encoding")
	}
	if rest := left[1][len(again.Wire()):cap(left[1])]; poisonLent && bytes.Count(rest, []byte{0xDB}) != len(rest) {
		t.Fatal("a renewed buffer was not poisoned before it was carved again")
	}
}

// A pool lists a buffer given back only while it lists at most two for
// each one it holds, and trims its list at every give-back, a forgotten
// buffer's too: with nothing held it lists nothing.
func TestPoolListsTwiceWhatItHolds(t *testing.T) {
	var pool Pool
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = pool.Get()
	}
	for _, step := range []struct {
		give             func()
		held, free, used int
	}{
		{func() { pool.Put(bufs[0]) }, 3, 1, 0},
		{func() { pool.Put(bufs[1], bufs[2]) }, 1, 2, 0},
		{func() { bufs[0] = pool.Get() }, 2, 1, 1},
		{func() { pool.Put(bufs[0]) }, 1, 2, 1},
		{func() { pool.Forget(1) }, 0, 0, 1},
		{func() { pool.Get() }, 1, 0, 1},
	} {
		step.give()
		if held, free, reused := pool.Stats(); held != step.held || free != step.free || reused != int64(step.used) {
			t.Fatalf("the pool holds %d, lists %d and reused %d; want %d, %d and %d",
				held, free, reused, step.held, step.free, step.used)
		}
	}
}
