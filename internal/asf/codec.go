package asf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/media"
)

// --- low-level encode helpers ---

type cursor struct {
	buf *bytes.Buffer
}

func (c *cursor) u8(v uint8) { c.buf.WriteByte(v) }
func (c *cursor) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	c.buf.Write(b[:])
}
func (c *cursor) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	c.buf.Write(b[:])
}
func (c *cursor) i64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	c.buf.Write(b[:])
}

func (c *cursor) str16(s string) error {
	if len(s) >= MaxStrings {
		return fmt.Errorf("%w: string of %d bytes", ErrLimit, len(s))
	}
	c.u16(uint16(len(s)))
	c.buf.WriteString(s)
	return nil
}

// --- low-level decode helpers ---

type scanner struct {
	r   *bufio.Reader
	err error
}

func (s *scanner) bytes(n int) []byte {
	if s.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(s.r, b); err != nil {
		s.err = err
		return nil
	}
	return b
}

func (s *scanner) u8() uint8 {
	b := s.bytes(1)
	if s.err != nil {
		return 0
	}
	return b[0]
}

func (s *scanner) u16() uint16 {
	b := s.bytes(2)
	if s.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (s *scanner) u32() uint32 {
	b := s.bytes(4)
	if s.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (s *scanner) i64() int64 {
	b := s.bytes(8)
	if s.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (s *scanner) str16() string {
	n := s.u16()
	if s.err != nil {
		return ""
	}
	return string(s.bytes(int(n)))
}

func (s *scanner) dur() time.Duration {
	v := s.i64()
	if s.err != nil {
		return 0
	}
	d, err := i64ToDur(v)
	if err != nil {
		s.err = err
		return 0
	}
	return d
}

// scratchPool recycles the encode scratch buffers: header and index
// objects are encoded once per session (or per seek), and the payload
// is length-prefixed so it must be staged before the final copy. The
// pool keeps those stagings from costing a fresh buffer per session.
var scratchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// EncodeHeader serializes the header object.
func EncodeHeader(h Header) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	buf := scratchPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer scratchPool.Put(buf)
	payload := &cursor{buf: buf}
	payload.u16(Version)
	payload.u16(h.Flags)
	payload.u32(h.PacketAlign)
	payload.i64(durToI64(h.Duration))
	if err := payload.str16(h.Title); err != nil {
		return nil, err
	}
	payload.u16(uint16(len(h.Streams)))
	for _, st := range h.Streams {
		payload.u16(uint16(st.ID))
		payload.u8(uint8(st.Kind))
		if err := payload.str16(st.Codec); err != nil {
			return nil, err
		}
		payload.i64(st.BitsPerSecond)
		payload.i64(durToI64(st.MaxSkew))
		payload.i64(durToI64(st.MaxJitter))
	}
	payload.u32(uint32(len(h.Scripts)))
	for _, sc := range h.Scripts {
		payload.i64(durToI64(sc.At))
		if err := payload.str16(sc.Type); err != nil {
			return nil, err
		}
		if err := payload.str16(sc.Param); err != nil {
			return nil, err
		}
	}

	out := make([]byte, 0, len(headerMagic)+4+buf.Len())
	out = append(out, headerMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(buf.Len()))
	return append(out, buf.Bytes()...), nil
}

// DecodeHeader reads and parses a header object from r.
func DecodeHeader(r *bufio.Reader) (Header, error) {
	var h Header
	s := &scanner{r: r}
	magic := s.bytes(4)
	if s.err != nil {
		return h, fmt.Errorf("asf: read header magic: %w", s.err)
	}
	if !bytes.Equal(magic, headerMagic[:]) {
		return h, fmt.Errorf("%w: header %q", ErrBadMagic, magic)
	}
	size := s.u32()
	if s.err != nil {
		return h, fmt.Errorf("asf: read header size: %w", s.err)
	}
	if size > MaxPayload {
		return h, fmt.Errorf("%w: header %d bytes", ErrLimit, size)
	}
	body := s.bytes(int(size))
	if s.err != nil {
		return h, fmt.Errorf("asf: read header body: %w", s.err)
	}
	bs := &scanner{r: bufio.NewReader(bytes.NewReader(body))}

	if v := bs.u16(); v != Version {
		if bs.err == nil {
			return h, fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
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
	if err := h.Validate(); err != nil {
		return h, err
	}
	return h, nil
}

// appendPacket appends p's complete wire encoding (fixed header, CRC,
// payload) to dst in one pass — the header and payload land in the same
// buffer, so one Write sends both (the writev-style coalescing the
// serving path relies on).
func appendPacket(dst []byte, p Packet) []byte {
	dst = append(dst, packetMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(p.Stream))
	dst = append(dst, uint8(p.Kind), p.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(durToI64(p.PTS)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(durToI64(p.Dur)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(durToI64(p.SendAt)))
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

// decodePacketAfterMagic parses a packet body once the "PK" magic has been
// consumed.
func decodePacketAfterMagic(s *scanner) (Packet, error) {
	var p Packet
	p.Stream = media.StreamID(s.u16())
	p.Kind = media.Kind(s.u8())
	p.Flags = s.u8()
	p.PTS = s.dur()
	p.Dur = s.dur()
	p.SendAt = s.dur()
	p.Seq = s.u32()
	crc := s.u32()
	n := s.u32()
	if s.err != nil {
		return p, fmt.Errorf("%w: truncated packet: %v", ErrCorrupt, s.err)
	}
	if n > MaxPayload {
		return p, fmt.Errorf("%w: payload %d bytes", ErrLimit, n)
	}
	p.Payload = s.bytes(int(n))
	if s.err != nil {
		return p, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, s.err)
	}
	if payloadCRC(p.Payload) != crc {
		return p, ErrChecksum
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// EncodeIndex serializes the index object. One allocation, exactly
// sized.
func EncodeIndex(ix Index) ([]byte, error) {
	if len(ix) > MaxIndexEntries {
		return nil, fmt.Errorf("%w: %d index entries", ErrLimit, len(ix))
	}
	out := make([]byte, 0, len(indexMagic)+4+len(ix)*(8+4))
	out = append(out, indexMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ix)))
	for _, e := range ix {
		out = binary.LittleEndian.AppendUint64(out, uint64(durToI64(e.PTS)))
		out = binary.LittleEndian.AppendUint32(out, e.Seq)
	}
	return out, nil
}

// decodeIndexAfterMagic parses an index body once "IX" has been consumed.
func decodeIndexAfterMagic(s *scanner) (Index, error) {
	n := s.u32()
	if s.err != nil {
		return nil, fmt.Errorf("%w: truncated index: %v", ErrCorrupt, s.err)
	}
	if n > MaxIndexEntries {
		return nil, fmt.Errorf("%w: %d index entries", ErrLimit, n)
	}
	ix := make(Index, 0, n)
	for i := uint32(0); i < n; i++ {
		e := IndexEntry{PTS: s.dur()}
		e.Seq = s.u32()
		if s.err != nil {
			return nil, fmt.Errorf("%w: truncated index entry: %v", ErrCorrupt, s.err)
		}
		ix = append(ix, e)
	}
	return ix, nil
}

// Writer emits a container to an io.Writer: header first, then packets,
// then (for stored content) the index on Close.
type Writer struct {
	w       io.Writer
	header  Header
	seq     uint32
	index   Index
	started bool
	closed  bool
}

// NewWriter creates a Writer; the header is written on the first call to
// WritePacket or Flush so callers may construct writers cheaply.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return &Writer{w: w, header: h}, nil
}

// Header returns the writer's header.
func (w *Writer) Header() Header { return w.header }

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

// WriteHeader forces the header object out immediately. Without it the
// header is written lazily on the first packet; live sessions call it on
// join so clients can parse stream properties before any media flows.
func (w *Writer) WriteHeader() error {
	if w.closed {
		return ErrClosed
	}
	return w.ensureHeader()
}

// WritePacket assigns the packet its sequence number, records keyframes
// of stored content in the index, and writes it out. The packet's Seq
// field is overwritten.
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
	w.indexKeyframe(p)
	w.seq++
	return p.Seq, nil
}

// indexKeyframe records a keyframe as a seek point for the trailing
// index. A live stream never writes an index (Close), so it keeps none:
// the slice would grow for as long as the broadcast runs.
func (w *Writer) indexKeyframe(p Packet) {
	if p.Keyframe() && !w.header.Live() {
		w.index = append(w.index, IndexEntry{PTS: p.PTS, Seq: p.Seq})
	}
}

// PacketCount returns the number of packets written so far.
func (w *Writer) PacketCount() uint32 { return w.seq }

// Close writes the index object (omitted for live streams) and marks the
// writer finished. It does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return ErrClosed
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	w.closed = true
	if w.header.Live() {
		return nil
	}
	b, err := EncodeIndex(w.index)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("asf: write index: %w", err)
	}
	return nil
}

// Reader parses a container from an io.Reader incrementally, suitable for
// both stored files and live HTTP streams.
type Reader struct {
	r         *bufio.Reader
	header    Header
	hasHeader bool
	index     Index
	done      bool
}

// NewReader wraps r; call ReadHeader before ReadPacket.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// ReadHeader parses the header object.
func (r *Reader) ReadHeader() (Header, error) {
	if r.hasHeader {
		return r.header, nil
	}
	h, err := DecodeHeader(r.r)
	if err != nil {
		return h, err
	}
	r.header = h
	r.hasHeader = true
	return h, nil
}

// ReadPacket returns the next packet, or io.EOF after the last packet (and
// after parsing a trailing index object, if present).
func (r *Reader) ReadPacket() (Packet, error) {
	if !r.hasHeader {
		return Packet{}, ErrNoHeader
	}
	if r.done {
		return Packet{}, io.EOF
	}
	s := &scanner{r: r.r}
	magic := s.bytes(2)
	if s.err != nil {
		r.done = true
		// Only a pure EOF — zero bytes exactly on a frame boundary — is a
		// clean end of stream. An ErrUnexpectedEOF means the transport was
		// severed (a dying edge mid-stream): it must surface as an error,
		// or a failover-capable client would mistake the truncation for a
		// complete session and never resume.
		if errors.Is(s.err, io.EOF) && !errors.Is(s.err, io.ErrUnexpectedEOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("asf: read packet magic: %w", s.err)
	}
	switch {
	case bytes.Equal(magic, packetMagic[:]):
		return decodePacketAfterMagic(s)
	case bytes.Equal(magic, indexMagic[:]):
		ix, err := decodeIndexAfterMagic(s)
		if err != nil {
			r.done = true
			return Packet{}, err
		}
		r.index = ix
		r.done = true
		return Packet{}, io.EOF
	default:
		r.done = true
		return Packet{}, fmt.Errorf("%w: packet %q", ErrBadMagic, magic)
	}
}

// Index returns the trailing index, available only after ReadPacket has
// returned io.EOF on a stored file.
func (r *Reader) Index() Index { return r.index }

// ReadAll parses a complete container from r: header, all packets, and the
// trailing index if present. When the stored file carries no index (live
// captures), one is rebuilt from the keyframe packets so callers can
// always seek.
func ReadAll(r io.Reader) (Header, []Packet, Index, error) {
	reader := NewReader(r)
	h, err := reader.ReadHeader()
	if err != nil {
		return h, nil, nil, err
	}
	var packets []Packet
	for {
		p, err := reader.ReadPacket()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return h, packets, nil, err
		}
		packets = append(packets, p)
	}
	ix := reader.Index()
	if len(ix) == 0 {
		for _, p := range packets {
			if p.Keyframe() {
				ix = append(ix, IndexEntry{PTS: p.PTS, Seq: p.Seq})
			}
		}
	}
	return h, packets, ix, nil
}
