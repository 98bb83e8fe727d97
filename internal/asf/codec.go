package asf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/media"
)

// appendStr16 appends a length-prefixed string, refusing one the u16
// prefix (and MaxStrings) cannot carry.
func appendStr16(dst []byte, s string) ([]byte, error) {
	if len(s) >= MaxStrings {
		return nil, fmt.Errorf("%w: string of %d bytes", ErrLimit, len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendDur(dst []byte, d time.Duration) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(d))
}

// scanner walks bytes already in memory — a header body, an
// index entry, a packet's fixed header, a script payload. It allocates
// nothing: fields are decoded in place and the first short read or bad
// duration sticks in err, so callers check once after a run of fields.
type scanner struct {
	b   []byte
	err error
}

// take returns the next n bytes, or nil once the scanner has failed.
func (s *scanner) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if n > len(s.b) {
		s.err = io.ErrUnexpectedEOF
		return nil
	}
	b := s.b[:n]
	s.b = s.b[n:]
	return b
}

func (s *scanner) u8() uint8 {
	if b := s.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (s *scanner) u16() uint16 {
	if b := s.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (s *scanner) u32() uint32 {
	if b := s.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (s *scanner) i64() int64 {
	if b := s.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (s *scanner) str16() string {
	return string(s.take(int(s.u16())))
}

// dur reads a duration; the wire carries none below zero.
func (s *scanner) dur() time.Duration {
	v := s.i64()
	if v < 0 {
		s.err = fmt.Errorf("%w: negative duration", ErrCorrupt)
		return 0
	}
	return time.Duration(v)
}

// EncodeHeader serializes the header object.
func EncodeHeader(h Header) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	// The body is length-prefixed: reserve the prefix, append the body
	// behind it, then fill the size in. The capacity is a guess that fits
	// ordinary headers in one allocation; append grows it for long strings.
	out := make([]byte, 0, 64+len(h.Title)+48*len(h.Streams)+48*len(h.Scripts))
	out = append(out, headerMagic[:]...)
	out = append(out, 0, 0, 0, 0)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, h.Flags)
	out = binary.LittleEndian.AppendUint32(out, h.PacketAlign)
	out = appendDur(out, h.Duration)
	var err error
	if out, err = appendStr16(out, h.Title); err != nil {
		return nil, err
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(h.Streams)))
	for _, st := range h.Streams {
		out = binary.LittleEndian.AppendUint16(out, uint16(st.ID))
		out = append(out, uint8(st.Kind))
		if out, err = appendStr16(out, st.Codec); err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(st.BitsPerSecond))
		out = appendDur(out, st.MaxSkew)
		out = appendDur(out, st.MaxJitter)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(h.Scripts)))
	for _, sc := range h.Scripts {
		out = appendDur(out, sc.At)
		if out, err = appendStr16(out, sc.Type); err != nil {
			return nil, err
		}
		if out, err = appendStr16(out, sc.Param); err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(out[len(headerMagic):], uint32(len(out)-headerPrefixSize))
	return out, nil
}

// decodeHeaderBody parses the header object's length-prefixed body.
func decodeHeaderBody(body []byte) (Header, error) {
	var h Header
	bs := &scanner{b: body}
	if v := bs.u16(); v != Version && bs.err == nil {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	h.Flags = bs.u16()
	h.PacketAlign = bs.u32()
	h.Duration = bs.dur()
	h.Title = bs.str16()
	nStreams := int(bs.u16())
	if nStreams > MaxStreams {
		return h, fmt.Errorf("%w: %d streams", ErrLimit, nStreams)
	}
	for i := 0; i < nStreams && bs.err == nil; i++ {
		st := StreamProps{
			ID:   media.StreamID(bs.u16()),
			Kind: media.Kind(bs.u8()),
		}
		st.Codec = bs.str16()
		st.BitsPerSecond = bs.i64()
		st.MaxSkew = bs.dur()
		st.MaxJitter = bs.dur()
		h.Streams = append(h.Streams, st)
	}
	nScripts := int(bs.u32())
	if nScripts > MaxScripts {
		return h, fmt.Errorf("%w: %d scripts", ErrLimit, nScripts)
	}
	for i := 0; i < nScripts && bs.err == nil; i++ {
		sc := ScriptCommand{At: bs.dur()}
		sc.Type = bs.str16()
		sc.Param = bs.str16()
		h.Scripts = append(h.Scripts, sc)
	}
	if bs.err != nil {
		return h, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, bs.err)
	}
	return h, h.Validate()
}

// appendPacket appends p's complete wire encoding (fixed header, CRC,
// payload) to dst in one pass — the header and payload land in the same
// buffer, so one Write sends both (the writev-style coalescing the
// serving path relies on).
func appendPacket(dst []byte, p Packet) []byte {
	dst = append(dst, packetMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Stream))
	dst = append(dst, uint8(p.Kind), p.Flags)
	dst = appendDur(dst, p.PTS)
	dst = appendDur(dst, p.Dur)
	dst = appendDur(dst, p.SendAt)
	dst = binary.LittleEndian.AppendUint32(dst, p.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, payloadCRC(p.Payload))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Payload)))
	return append(dst, p.Payload...)
}

// EncodePacket serializes a packet including its CRC. One allocation,
// exactly sized.
func EncodePacket(p Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return appendPacket(make([]byte, 0, packetWireSize+len(p.Payload)), p), nil
}

// Writer emits a container to an io.Writer: header first, then packets.
// A stored stream and a live one end alike, with their last packet.
type Writer struct {
	w       io.Writer
	header  Header
	seq     uint32
	started bool
	closed  bool
}

// NewWriter creates a Writer; the header is written by the first
// WritePacket, WriteShared or Close, so callers may construct writers
// cheaply.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &Writer{w: w, header: h}, nil
}

func (w *Writer) ensureHeader() error {
	if w.started {
		return nil
	}
	b, err := EncodeHeader(w.header)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("asf: write header: %w", err)
	}
	w.started = true
	return nil
}

// WritePacket assigns the packet its sequence number and writes it out.
// The packet's Seq field is overwritten.
func (w *Writer) WritePacket(p Packet) (uint32, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.ensureHeader(); err != nil {
		return 0, err
	}
	p.Seq = w.seq
	b, err := EncodePacket(p)
	if err != nil {
		return 0, err
	}
	if _, err := w.w.Write(b); err != nil {
		return 0, fmt.Errorf("asf: write packet %d: %w", p.Seq, err)
	}
	w.seq++
	return p.Seq, nil
}

// PacketCount returns the number of packets written so far.
func (w *Writer) PacketCount() uint32 { return w.seq }

// Close writes the header if no packet did and marks the writer
// finished. It does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	w.closed = true
	return nil
}

// A reader's window starts at windowSize — a dozen ordinary packets, so a
// fill is amortized over that many — and grows to the largest object the
// stream has carried, a slide image say, so that the next one is parsed in
// place too; but no further than windowMax, the buffer every reader held
// before it had a window of its own. A larger object gets a buffer for
// itself alone.
//
// A source that keeps the window full grows it to windowMax, so a bulk
// body is read in windowMax pieces: a read is full when it returns all the
// room it was given and that room was at least half the window, and once
// windowMax-windowSize bytes have arrived in back-to-back full reads, the
// next move of the unparsed bytes is into a windowMax window (a read that
// is not full starts the count again). A paced stream does not keep its
// window full that long, nor does a burst at join shorter than
// windowMax-windowSize (a group's lead time), so those windows stay
// small; a longer burst, or a live subscriber keeping up with an unpaced
// broadcast, earns a windowMax one like a stored body.
//
// A reader whose stream has ended has lent its last packet, so its window
// goes to the next reader: onto a leaky free list of at most maxIdleWindows
// (1 MB), not into a sync.Pool, which every GC empties. A window over
// windowMax is never listed, and a window a reader outgrows is dropped, so
// under bulk load the list settles on windowMax windows. A fill that needs
// a new window takes a listed one when it is large enough, so a session
// that follows another reads without allocating one, already grown to what
// the last one carried.
const (
	windowSize     = 16 << 10
	windowMax      = 64 << 10
	maxIdleWindows = 16
)

var idleWindows = make(chan []byte, maxIdleWindows)

// newWindow returns a window of at least n bytes: a listed one when the
// one it takes is large enough (a smaller one goes back on the list), else
// a new one of max(n, windowSize).
func newWindow(n int) []byte {
	select {
	case w := <-idleWindows:
		if len(w) >= n {
			return w
		}
		select {
		case idleWindows <- w:
		default:
		}
	default:
	}
	return make([]byte, max(n, windowSize))
}

// listWindow puts w on the free list, or drops it when the list is full
// or w is over windowMax. Under asfpoison it is overwritten with 0xDB
// first, so a caller that kept a lent Payload past the end of its stream
// reads poison, not the next session's bytes.
func listWindow(w []byte) {
	if len(w) > windowMax {
		return
	}
	if poisonLent {
		for i := range w {
			w[i] = 0xDB
		}
	}
	select {
	case idleWindows <- w:
	default:
	}
}

// Reader parses a container from an io.Reader incrementally, suitable for
// both stored files and live HTTP streams. It is where bytes from outside
// are checked — magic, size limits, CRC, Validate — once; what it hands
// out needs no second look downstream.
//
// The reader owns one window over its source and parses where the bytes
// landed: no second buffer in front of it is needed (it reads the source
// in window-sized pieces, windowMax ones once it keeps the window full)
// and none is made per packet. Who may keep what
// it returns is the package's lend/own contract — see the package
// documentation: ReadPacket lends, ReadShared owns, by the slab.
//
// The first error — io.EOF included — ends the stream: every later read
// returns it again, and the window goes to the next reader.
type Reader struct {
	src io.Reader
	// buf is the window, windowSize to windowMax long unless one object
	// larger than that is in it, and nil once the stream has ended;
	// buf[pos:end] is read from src and not yet parsed.
	buf      []byte
	pos, end int
	// bulk is the bytes that arrived in back-to-back full reads (see
	// windowMax); from windowMax-windowSize on, the next fill that moves
	// the unparsed bytes moves them into a windowMax window.
	bulk int
	// lent counts the payload bytes before pos that the last ReadPacket
	// handed out; only the asfpoison build reads it.
	lent int
	// slab is where ReadShared copies what it hands out; ReadPacket
	// never touches it.
	slab Slab

	header    Header
	hasHeader bool
	err       error
}

// NewReader wraps r; call ReadHeader before ReadPacket. The window is
// taken by the first read.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r}
}

// peek returns the next n unparsed bytes without consuming them, valid
// until the next peek. Like io.ReadFull it fails with io.EOF only when
// the source ends with nothing unparsed, and with io.ErrUnexpectedEOF
// when it ends short of n.
func (r *Reader) peek(n int) ([]byte, error) {
	if r.end-r.pos < n {
		if err := r.fill(n); err != nil {
			return nil, err
		}
	}
	return r.buf[r.pos : r.pos+n], nil
}

// fill reads from the source until n bytes are unparsed. The unparsed
// bytes move to the front first when n does not fit behind pos (or there
// are none to move): within the window when it can hold n (and the source
// has not earned a windowMax one), else into another (newWindow), which is
// at least n bytes. A window over windowMax is therefore full of the one
// object it was made for, with nothing read ahead behind it, and is
// dropped for another by the first fill after it.
func (r *Reader) fill(n int) error {
	if unparsed := r.buf[r.pos:r.end]; len(unparsed) == 0 || r.pos+n > len(r.buf) {
		want := n
		if r.bulk >= windowMax-windowSize {
			want = max(n, windowMax)
		}
		dst := r.buf
		if want > len(dst) || len(dst) > windowMax {
			dst = newWindow(want)
		}
		r.end = copy(dst, unparsed)
		r.buf, r.pos = dst, 0
	}
	for r.end-r.pos < n {
		room := len(r.buf) - r.end
		m, err := r.src.Read(r.buf[r.end:])
		r.end += m
		if m == room && 2*room >= len(r.buf) {
			r.bulk += m
		} else {
			r.bulk = 0
		}
		if err != nil && r.end-r.pos < n {
			if err == io.EOF && r.end > r.pos {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// Ready reports whether the next packet lies whole in the reader's
// window, so that reading it reads nothing from the source: for a caller
// that takes what has already arrived before it waits on the source.
func (r *Reader) Ready() bool {
	b := r.buf[r.pos:r.end]
	if len(b) < packetWireSize || !bytes.Equal(b[:len(packetMagic)], packetMagic[:]) {
		return false
	}
	return len(b)-packetWireSize >= int(binary.LittleEndian.Uint32(b[packetWireSize-4:]))
}

// ReadHeader parses the header object.
func (r *Reader) ReadHeader() (Header, error) {
	if r.hasHeader {
		return r.header, nil
	}
	magic, err := r.peek(len(headerMagic))
	if err != nil {
		return Header{}, fmt.Errorf("asf: read header magic: %w", err)
	}
	if !bytes.Equal(magic, headerMagic[:]) {
		return Header{}, fmt.Errorf("%w: header %q", ErrBadMagic, magic)
	}
	prefix, err := r.peek(headerPrefixSize)
	if err != nil {
		return Header{}, fmt.Errorf("asf: read header size: %w", err)
	}
	size := binary.LittleEndian.Uint32(prefix[len(headerMagic):])
	if size > MaxPayload {
		return Header{}, fmt.Errorf("%w: header %d bytes", ErrLimit, size)
	}
	object, err := r.peek(headerPrefixSize + int(size))
	if err != nil {
		return Header{}, fmt.Errorf("asf: read header body: %w", err)
	}
	// decodeHeaderBody copies every string out, so the header keeps
	// nothing of the window.
	h, err := decodeHeaderBody(object[headerPrefixSize:])
	if err != nil {
		return h, err
	}
	r.pos += len(object)
	r.header = h
	r.hasHeader = true
	return h, nil
}

// ReadPacket returns the next packet, or io.EOF after the last packet (and
// after parsing a trailing index object, if present). The packet is lent:
// its Payload aliases the reader's window and is valid only until the
// next call on this reader, like bufio.Scanner.Bytes — and that call may
// end the stream and hand the window to another reader. A caller that
// keeps the packet takes Packet.Clone first.
func (r *Reader) ReadPacket() (Packet, error) {
	p, _, err := r.next()
	r.lent = len(p.Payload)
	return p, err
}

// ReadShared is ReadPacket for a caller that keeps the packet or sends it
// on: the validated wire image is copied once, as it arrived — no
// re-encode, no second CRC pass — into the reader's slab, which nothing
// writes there again (see Slab).
func (r *Reader) ReadShared() (*Shared, error) { return r.ReadTo(&r.slab) }

// ReadTo is ReadShared with the image copied into s, not the reader's
// own slab: for a caller whose slab takes its buffers from a Pool and
// gives them back (a live channel's or a stored asset's, see Slab.Renew).
func (r *Reader) ReadTo(s *Slab) (*Shared, error) {
	_, wire, err := r.next()
	if err != nil {
		return nil, err
	}
	return s.own(wire), nil
}

// next validates the next packet in place and consumes it; the returned
// wire image, and the packet's Payload in its tail, alias the window. The
// first error lists the window and the reader never touches one again.
func (r *Reader) next() (Packet, []byte, error) {
	if !r.hasHeader {
		return Packet{}, nil, ErrNoHeader
	}
	if r.err != nil {
		return Packet{}, nil, r.err
	}
	if poisonLent {
		lent := r.buf[r.pos-r.lent : r.pos]
		for i := range lent {
			lent[i] = 0xDB
		}
	}
	r.lent = 0
	p, wire, err := r.parseNext()
	if err != nil {
		r.err = err
		listWindow(r.buf)
		r.buf, r.pos, r.end = nil, 0, 0
		return Packet{}, nil, err
	}
	r.pos += len(wire)
	return p, wire, nil
}

// parseNext parses the object at pos: a packet, which it leaves for next
// to consume, or the trailing index, which ends the stream.
func (r *Reader) parseNext() (Packet, []byte, error) {
	magic, err := r.peek(len(packetMagic))
	if err != nil {
		// Only a pure EOF — zero bytes exactly on a frame boundary — is a
		// clean end of stream. An ErrUnexpectedEOF means the transport was
		// severed (a dying edge mid-stream): it must surface as an error,
		// or a failover-capable client would mistake the truncation for a
		// complete session and never resume.
		if err == io.EOF {
			return Packet{}, nil, io.EOF
		}
		return Packet{}, nil, fmt.Errorf("asf: read packet magic: %w", err)
	}
	switch {
	case bytes.Equal(magic, packetMagic[:]):
		return r.parsePacket()
	case bytes.Equal(magic, indexMagic[:]):
		if err := r.skipIndex(); err != nil {
			return Packet{}, nil, err
		}
		return Packet{}, nil, io.EOF
	default:
		return Packet{}, nil, fmt.Errorf("%w: packet %q", ErrBadMagic, magic)
	}
}

// parsePacket parses the packet whose magic is at pos.
func (r *Reader) parsePacket() (Packet, []byte, error) {
	fixed, err := r.peek(packetWireSize)
	if err != nil {
		return Packet{}, nil, fmt.Errorf("%w: truncated packet: %w", ErrCorrupt, err)
	}
	s := &scanner{b: fixed[len(packetMagic):]}
	p := Packet{
		Stream: media.StreamID(s.u16()),
		Kind:   media.Kind(s.u8()),
		Flags:  s.u8(),
		PTS:    s.dur(),
		Dur:    s.dur(),
		SendAt: s.dur(),
		Seq:    s.u32(),
	}
	crc, n := s.u32(), s.u32()
	if s.err != nil {
		return p, nil, fmt.Errorf("%w: packet header: %v", ErrCorrupt, s.err)
	}
	if n > MaxPayload {
		return p, nil, fmt.Errorf("%w: payload %d bytes", ErrLimit, n)
	}
	// This peek may move or replace the window: fixed is dead from here.
	wire, err := r.peek(packetWireSize + int(n))
	if err != nil {
		return p, nil, fmt.Errorf("%w: truncated payload: %w", ErrCorrupt, err)
	}
	// Capacity stops at the packet: an append to a lent Payload must not
	// write into the packet behind it.
	wire = wire[:len(wire):len(wire)]
	p.Payload = wire[packetWireSize:]
	if payloadCRC(p.Payload) != crc {
		return p, nil, ErrChecksum
	}
	if err := p.Validate(); err != nil {
		return p, nil, err
	}
	return p, wire, nil
}

// skipIndex checks and consumes the index object whose magic is at pos,
// the trailer of a container an older writer wrote. What it lists is not
// kept: a reader derives the seek points from the packets
// (Header.SeekPoint), so its count allocates nothing.
func (r *Reader) skipIndex() error {
	prefix, err := r.peek(indexPrefixSize)
	if err != nil {
		return fmt.Errorf("%w: truncated index: %w", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(prefix[len(indexMagic):])
	if n > MaxIndexEntries {
		return fmt.Errorf("%w: %d index entries", ErrLimit, n)
	}
	r.pos += len(prefix)
	for i := uint32(0); i < n; i++ {
		entry, err := r.peek(indexEntrySize)
		if err != nil {
			return fmt.Errorf("%w: truncated index entry: %w", ErrCorrupt, err)
		}
		s := &scanner{b: entry}
		s.dur()
		if s.err != nil {
			return fmt.Errorf("%w: index entry: %v", ErrCorrupt, s.err)
		}
		r.pos += indexEntrySize
	}
	return nil
}

// ReadAll parses a complete container from r: header, all packets, and
// the index of their seek points, derived from the packets. The packets
// are clones: the caller owns them.
func ReadAll(r io.Reader) (Header, []Packet, Index, error) {
	reader := NewReader(r)
	h, err := reader.ReadHeader()
	if err != nil {
		return h, nil, nil, err
	}
	var packets []Packet
	var ix Index
	for {
		p, err := reader.ReadPacket()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return h, packets, nil, err
		}
		packets = append(packets, p.Clone())
		if h.SeekPoint(p) {
			ix = append(ix, IndexEntry{PTS: p.PTS, Seq: p.Seq})
		}
	}
	return h, packets, ix, nil
}
