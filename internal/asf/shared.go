package asf

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/media"
)

// Fixed wire sizes.
const (
	// packetWireSize is a packet before its payload: "PK" magic, stream,
	// kind, flags, three i64 timings, seq, crc, length.
	packetWireSize = 2 + 2 + 1 + 1 + 8 + 8 + 8 + 4 + 4 + 4
	// headerPrefixSize is the header object before its body: "WMP1"
	// magic, u32 body size.
	headerPrefixSize = 4 + 4
	// indexPrefixSize is the index object before its entries: "IX" magic,
	// u32 entry count.
	indexPrefixSize = 2 + 4
	// indexEntrySize is one index entry: i64 pts, u32 seq.
	indexEntrySize = 8 + 4
)

// Shared is an immutable packet in wire form, and nothing else: the
// bytes (header, CRC, payload) come into being exactly once — encoded by
// NewShared or Slab.NewShared at the origin, or read and validated off a
// stream by Reader.ReadShared — and every consumer — each live
// subscriber, each VOD session, each edge re-fan-out — writes the same
// underlying buffer. This is the zero-copy half of the serving path:
// fan-out to N subscribers costs N writes of one buffer, not N
// re-encodes and N CRC passes.
//
// Ownership rules (enforced by construction, checked by the race suite):
//
//   - Encoding copies the payload into the wire image, so the caller may
//     reuse or mutate its payload buffer the moment NewShared returns;
//     ReadShared copies the image out of the reader's window into a slab
//     no one writes again while anyone may read the packet.
//   - After construction nothing may write to the Shared: Wire and the
//     Packet view's Payload alias the same bytes that are concurrently
//     being written to other subscribers' connections. Both are
//     capacity-clipped to the packet, so even an append cannot reach the
//     packet next to it in a slab.
//
// A Shared holds no decoded copy of its packet: Packet, SendAt and
// PayloadLen read the fields from the image's fixed header, which was
// validated (and its payload CRC-checked) when the image was made, so a
// Shared is one slice header and a read is a few loads from bytes the
// write is about to send.
type Shared struct {
	// wire is the full wire image — fixed header and payload — whose
	// capacity runs to the end of the buffer it was carved from, so that
	// Run can tell the image carved behind it in the same buffer.
	wire []byte
}

// Offsets of the fixed header's fields in a wire image, as appendPacket
// writes them: "PK" magic, stream, kind, flags, PTS, Dur, SendAt, seq,
// crc, length.
const (
	offStream = 2
	offKind   = 4
	offFlags  = 5
	offPTS    = 6
	offDur    = 14
	offSendAt = 22
	offSeq    = 30
)

// NewShared validates p and encodes it once, payload copied in, into a
// buffer of exactly its size: the one-off form of Slab.NewShared. The
// packet's Seq is preserved as assigned by the publisher — a Shared is
// the same bytes for every consumer by definition, so no downstream
// writer may re-sequence it.
func NewShared(p Packet) (*Shared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Shared{wire: appendPacket(make([]byte, 0, packetWireSize+len(p.Payload)), p)}, nil
}

// A slab's wire images are carved from buffers of SlabSize and its
// Shared headers from chunks of sharedChunk. An image that does not fit
// in what is left of the current buffer gets a new one, unless it is at
// least a quarter of the buffer size: then it gets a buffer of its own
// and the current one stays open, so a large image — a slide, a big
// keyframe — does not make the rest of the current buffer tail. Long
// buffers mean few allocations and long runs of images that leave in one
// write (Run).
const (
	SlabSize    = 64 << 10
	sharedChunk = 64
)

// Slab carves owned packets out of shared memory: a handful of
// allocations per asset or per stretch of broadcast instead of two per
// packet. A packet pins the buffer its image lies in, and the chunk its
// header lies in, for as long as anyone references it, and the garbage
// collector frees both once none of their packets is referenced. Only
// an owner that knows when no one will read a buffer's packets again
// takes its buffers from a Pool and gives them back (Renew): a live
// channel, which knows where its log ends and where every viewer is, and
// a stored asset, which counts who reads it. The zero Slab is ready to
// use; it is not safe for concurrent use.
type Slab struct {
	buf    []byte   // current buffer: len is carved, cap-len is free
	shared []Shared // current header chunk: len is handed out
	// Renew, when set, is called each time the slab leaves its buffer
	// for a new one, with the buffer it leaves (nil the first time). It
	// returns the buffer to carve next, or nil for a new one: an owner
	// takes it from its Pool, and gives the buffers the slab leaves back
	// once no one will read a packet carved in them again. Under
	// asfpoison the slab overwrites a returned buffer with 0xDB before it
	// carves it, so a reader that was wrongly let go of reads poison, not
	// another packet's bytes.
	Renew func(left []byte) []byte
}

// NewShared is NewShared with the image and header carved from the slab.
func (s *Slab) NewShared(p Packet) (*Shared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := s.nextShared()
	sp.wire = appendPacket(s.bytes(packetWireSize + len(p.Payload))[:0], p)
	return sp, nil
}

// own copies a validated wire image into the slab.
func (s *Slab) own(wire []byte) *Shared {
	sp := s.nextShared()
	sp.wire = s.bytes(len(wire))
	copy(sp.wire, wire)
	return sp
}

// bytes returns n bytes of the slab, their capacity running to the end
// of the buffer they lie in.
func (s *Slab) bytes(n int) []byte {
	off := len(s.buf)
	if n > cap(s.buf)-off {
		if n >= SlabSize/4 {
			return make([]byte, n)
		}
		s.buf, off = s.renew(), 0
	}
	s.buf = s.buf[:off+n]
	return s.buf[off:]
}

// renew returns the slab's next buffer, empty: the one Renew returns, or
// a new one.
func (s *Slab) renew() []byte {
	if s.Renew != nil {
		if buf := s.Renew(s.buf); buf != nil {
			buf = buf[:cap(buf)]
			if poisonLent {
				for i := range buf {
					buf[i] = 0xDB
				}
			}
			return buf[:0]
		}
	}
	return make([]byte, 0, SlabSize)
}

// Pool is a node's one free list of slab buffers: its owners take every
// buffer from it and give each back (Slab.Renew), so a buffer a stored
// asset gave back may be carved next by a live channel, and the other
// way round. A buffer is held from Get until its owner gives it back
// (Put) or forgets it (Forget): a parse in flight is held from its first
// buffer. The pool lists at most two free buffers for each one held, and
// trims its list to that at every give-back, so its idle memory falls as
// held memory falls and is none once nothing is held. Two, not one: an
// edge past its cache holds about three mirrors between bursts of five
// pulls, and a list no longer than what it holds sends the last two to
// fresh memory. The zero Pool is ready to use; it is safe for concurrent
// use.
type Pool struct {
	mu     sync.Mutex
	free   [][]byte
	held   int
	reused int64
}

// Get hands out a buffer of SlabSize, a listed one if the pool has any.
func (p *Pool) Get() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held++
	n := len(p.free)
	if n == 0 {
		return make([]byte, 0, SlabSize)
	}
	buf := p.free[n-1]
	p.free[n-1], p.free = nil, p.free[:n-1]
	p.reused++
	return buf
}

// Put gives back buffers Get handed out that no one will read again.
func (p *Pool) Put(bufs ...[]byte) { p.giveBack(len(bufs), bufs) }

// Forget gives back n buffers Get handed out that a reader may still
// hold: they are left to the collector.
func (p *Pool) Forget(n int) { p.giveBack(n, nil) }

// giveBack counts n buffers given back, lists bufs, and trims the list to
// twice what the pool still holds.
func (p *Pool) giveBack(n int, bufs [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held -= n
	p.free = append(p.free, bufs...)
	if keep := 2 * p.held; len(p.free) > keep {
		clear(p.free[keep:])
		p.free = p.free[:keep]
	}
}

// Stats returns the buffers the pool holds and lists, and how many listed
// buffers it has handed out again.
func (p *Pool) Stats() (held, free int, reused int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held, len(p.free), p.reused
}

// nextShared returns a zeroed Shared from the current chunk.
func (s *Slab) nextShared() *Shared {
	if len(s.shared) == cap(s.shared) {
		s.shared = make([]Shared, 0, sharedChunk)
	}
	s.shared = s.shared[:len(s.shared)+1]
	return &s.shared[len(s.shared)-1]
}

// Packet decodes the shared packet from its wire image. The view's
// Payload aliases the image's tail, capacity-clipped to it: treat it as
// read-only.
func (s *Shared) Packet() Packet {
	w := s.Wire()
	return Packet{
		Stream:  media.StreamID(binary.LittleEndian.Uint16(w[offStream:])),
		Kind:    media.Kind(w[offKind]),
		Flags:   w[offFlags],
		PTS:     time.Duration(binary.LittleEndian.Uint64(w[offPTS:])),
		Dur:     time.Duration(binary.LittleEndian.Uint64(w[offDur:])),
		SendAt:  s.SendAt(),
		Seq:     s.seq(),
		Payload: w[packetWireSize:],
	}
}

// Wire returns the complete wire encoding (header + CRC + payload).
// The buffer is shared with every other consumer: never modify it.
func (s *Shared) Wire() []byte { return s.wire[:len(s.wire):len(s.wire)] }

// Run returns the longest prefix of sps whose wire images lie back to
// back in one slab buffer, as one capacity-clipped slice, and its length
// n, at least 1 (sps must not be empty): what a connection can take in
// one write, with no copy.
// A run never spans two allocations: it ends where a buffer does, at an
// image with a buffer of its own, and at the image after one. Images
// from NewShared each have their own buffer, so each is a run of one.
func Run(sps []*Shared) (wire []byte, n int) {
	wire = sps[0].wire
	for n = 1; n < len(sps); n++ {
		next := sps[n].wire
		// The image behind wire in its buffer starts at wire's end; one
		// in another allocation never does.
		if cap(wire)-len(wire) < len(next) || &wire[:len(wire)+1][len(wire)] != &next[0] {
			break
		}
		wire = wire[:len(wire)+len(next)]
	}
	return wire[:len(wire):len(wire)], n
}

// PayloadLen is the payload size in bytes.
func (s *Shared) PayloadLen() int { return len(s.wire) - packetWireSize }

// SendAt is the packet's transmission deadline.
func (s *Shared) SendAt() time.Duration {
	return time.Duration(binary.LittleEndian.Uint64(s.wire[offSendAt:]))
}

// seq is the packet's sequence number.
func (s *Shared) seq() uint32 { return binary.LittleEndian.Uint32(s.wire[offSeq:]) }

// WriteShared writes a pre-encoded packet: the shared wire image goes
// out as-is — no re-encode, no CRC pass, no re-sequencing — so every
// consumer of the same Shared receives identical bytes. The writer's own
// sequence counter follows the shared packet's, so WritePacket and
// WriteShared may interleave on one stream.
func (w *Writer) WriteShared(sp *Shared) error {
	if w.closed {
		return ErrClosed
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if _, err := w.w.Write(sp.Wire()); err != nil {
		return fmt.Errorf("asf: write packet %d: %w", sp.seq(), err)
	}
	w.seq = sp.seq() + 1
	return nil
}
