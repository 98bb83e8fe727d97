package asf

import (
	"fmt"
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
	// indexEntrySize is one index entry: i64 pts, u32 seq.
	indexEntrySize = 8 + 4
)

// Shared is an immutable packet in wire form: the bytes (header, CRC,
// payload) come into being exactly once — encoded by NewShared at the
// origin, or read and validated off a stream by Reader.ReadShared — and
// every consumer — each live subscriber, each VOD session, each edge
// re-fan-out — writes the same underlying buffer. This is the zero-copy
// half of the serving path: fan-out to N subscribers costs N writes of
// one buffer, not N re-encodes and N CRC passes.
//
// Ownership rules (enforced by construction, checked by the race suite):
//
//   - NewShared copies the payload into the wire image, so the caller
//     may reuse or mutate its payload buffer the moment NewShared
//     returns; ReadShared copies the image out of the reader's window
//     into a buffer no one else holds.
//   - After construction nothing may write to the Shared: Wire and the
//     Packet view's Payload alias the same buffer that is concurrently
//     being written to other subscribers' connections.
type Shared struct {
	wire []byte // full wire image: fixed header + payload
	pkt  Packet // decoded view; Payload aliases wire's tail
}

// NewShared validates p and encodes it once, payload copied in. The
// packet's Seq is preserved as assigned by the publisher — a Shared is
// the same bytes for every consumer by definition, so no downstream
// writer may re-sequence it.
func NewShared(p Packet) (*Shared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := &Shared{
		wire: appendPacket(make([]byte, 0, packetWireSize+len(p.Payload)), p),
		pkt:  p,
	}
	sp.pkt.Payload = sp.wire[packetWireSize:]
	return sp, nil
}

// Packet returns the decoded view of the shared packet. The view's
// Payload aliases the shared wire image: treat it as read-only.
func (s *Shared) Packet() Packet { return s.pkt }

// Wire returns the complete wire encoding (header + CRC + payload).
// The buffer is shared with every other consumer: never modify it.
func (s *Shared) Wire() []byte { return s.wire }

// PayloadLen is the payload size in bytes.
func (s *Shared) PayloadLen() int { return len(s.pkt.Payload) }

// Seq is the publisher-assigned container sequence number.
func (s *Shared) Seq() uint32 { return s.pkt.Seq }

// Kind is the packet's media kind.
func (s *Shared) Kind() media.Kind { return s.pkt.Kind }

// PTS is the packet's presentation timestamp.
func (s *Shared) PTS() time.Duration { return s.pkt.PTS }

// SendAt is the packet's transmission deadline.
func (s *Shared) SendAt() time.Duration { return s.pkt.SendAt }

// Keyframe reports whether the packet is a decoder entry point.
func (s *Shared) Keyframe() bool { return s.pkt.Keyframe() }

// Last reports whether the packet ends its stream.
func (s *Shared) Last() bool { return s.pkt.Last() }

// WriteShared writes a pre-encoded packet: the shared wire image goes
// out as-is — no re-encode, no CRC pass, no re-sequencing — so every
// consumer of the same Shared receives identical bytes. Keyframes of
// stored content still land in the writer's index for the trailing seek
// table, and the writer's own sequence counter follows the shared
// packet's, so WritePacket and WriteShared may interleave on one stream.
func (w *Writer) WriteShared(sp *Shared) error {
	if w.closed {
		return ErrClosed
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if _, err := w.w.Write(sp.wire); err != nil {
		return fmt.Errorf("asf: write packet %d: %w", sp.pkt.Seq, err)
	}
	w.indexKeyframe(sp.pkt)
	w.seq = sp.pkt.Seq + 1
	return nil
}
