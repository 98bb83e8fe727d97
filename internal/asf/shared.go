package asf

import (
	"fmt"
	"time"
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

// Shared is an immutable packet in wire form: the bytes (header, CRC,
// payload) come into being exactly once — encoded by NewShared or
// Slab.NewShared at the origin, or read and validated off a stream by
// Reader.ReadShared — and every consumer — each live subscriber, each
// VOD session, each edge re-fan-out — writes the same underlying buffer.
// This is the zero-copy half of the serving path: fan-out to N
// subscribers costs N writes of one buffer, not N re-encodes and N CRC
// passes.
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
type Shared struct {
	// wire is the full wire image — fixed header and payload — whose
	// capacity runs to the end of the buffer it was carved from, so that
	// Run can tell the image carved behind it in the same buffer.
	wire []byte
	pkt  Packet // decoded view; Payload aliases wire's tail
}

// NewShared validates p and encodes it once, payload copied in, into a
// buffer of exactly its size: the one-off form of Slab.NewShared. The
// packet's Seq is preserved as assigned by the publisher — a Shared is
// the same bytes for every consumer by definition, so no downstream
// writer may re-sequence it.
func NewShared(p Packet) (*Shared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := &Shared{wire: appendPacket(make([]byte, 0, packetWireSize+len(p.Payload)), p)}
	sp.setPacket(p)
	return sp, nil
}

// setPacket makes p, its Payload pointed at the wire image's tail, the
// Shared's decoded view.
func (s *Shared) setPacket(p Packet) {
	s.pkt = p
	s.pkt.Payload = s.Wire()[packetWireSize:]
}

// A slab's wire images are carved from buffers of slabSize and its
// Shared headers from chunks of sharedChunk. An image that does not fit
// in what is left of the current buffer gets a new one, unless it is at
// least a quarter of the buffer size: then it gets a buffer of its own
// and the current one stays open, so a large image — a slide, a big
// keyframe — does not make the rest of the current buffer tail. Long
// buffers mean few allocations and long runs of images that leave in one
// write (Run).
const (
	slabSize    = 64 << 10
	sharedChunk = 64
)

// Slab carves owned packets out of shared memory: a handful of
// allocations per asset or per stretch of broadcast instead of two per
// packet. A packet pins the buffer its image lies in, and the chunk its
// header lies in, for as long as anyone references it, and the garbage
// collector frees both once none of their packets is referenced. Only
// an owner that knows when no one will read a buffer's packets again
// takes a buffer back for reuse (Renew): a live channel, which knows
// where its log ends and where every viewer is, and a stored asset, which
// counts who reads it. The zero Slab is ready to use; it is not safe for
// concurrent use.
type Slab struct {
	buf    []byte   // current buffer: len is carved, cap-len is free
	shared []Shared // current header chunk: len is handed out
	left   int      // free bytes of the buffers already left behind
	// Renew, when set, is called each time the slab leaves its buffer
	// for a new one, with the buffer it leaves (nil the first time). It
	// returns a buffer the owner took back through an earlier call, to
	// be carved next in place of a new one, or nil. It may return a
	// buffer only once no one will read a packet carved in it again.
	// Under asfpoison the slab overwrites a returned buffer with 0xDB
	// before it carves it, so a reader that was wrongly let go of reads
	// poison, not another packet's bytes.
	Renew func(left []byte) []byte
}

// NewShared is NewShared with the image and header carved from the slab.
func (s *Slab) NewShared(p Packet) (*Shared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := s.nextShared()
	sp.wire = appendPacket(s.bytes(packetWireSize + len(p.Payload))[:0], p)
	sp.setPacket(p)
	return sp, nil
}

// own copies a validated wire image, and p its decoded view, into the
// slab.
func (s *Slab) own(p Packet, wire []byte) *Shared {
	sp := s.nextShared()
	sp.wire = s.bytes(len(wire))
	copy(sp.wire, wire)
	sp.setPacket(p)
	return sp
}

// bytes returns n bytes of the slab, their capacity running to the end
// of the buffer they lie in.
func (s *Slab) bytes(n int) []byte {
	off := len(s.buf)
	if n > cap(s.buf)-off {
		if n >= slabSize/4 {
			return make([]byte, n)
		}
		s.left += cap(s.buf) - off
		s.buf, off = s.renew(), 0
	}
	s.buf = s.buf[:off+n]
	return s.buf[off:]
}

// renew returns the slab's next buffer, empty: one Renew hands back, or
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
	return make([]byte, 0, slabSize)
}

// Buffer returns the buffer the slab carves now, nil before its first:
// with the buffers it handed Renew, every slab buffer its images lie in,
// for an owner that takes them all back at once (a stored asset).
func (s *Slab) Buffer() []byte { return s.buf }

// nextShared returns a zeroed Shared from the current chunk.
func (s *Slab) nextShared() *Shared {
	if len(s.shared) == cap(s.shared) {
		s.shared = make([]Shared, 0, sharedChunk)
	}
	s.shared = s.shared[:len(s.shared)+1]
	return &s.shared[len(s.shared)-1]
}

// tail is the bytes of the slab's buffers that were allocated and never
// carved: what its packets hold beyond their wire images.
func (s *Slab) tail() int { return s.left + cap(s.buf) - len(s.buf) }

// Packet returns the decoded view of the shared packet. The view's
// Payload aliases the shared wire image: treat it as read-only.
func (s *Shared) Packet() Packet { return s.pkt }

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
func (s *Shared) PayloadLen() int { return len(s.pkt.Payload) }

// SendAt is the packet's transmission deadline.
func (s *Shared) SendAt() time.Duration { return s.pkt.SendAt }

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
		return fmt.Errorf("asf: write packet %d: %w", sp.pkt.Seq, err)
	}
	w.seq = sp.pkt.Seq + 1
	return nil
}
