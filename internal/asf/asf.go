// Package asf implements the system's stream container, an open equivalent
// of the paper's Advanced Stream Format (§2.1): a data format for streaming
// audio and video content, images, and script commands in packets over a
// network. Content can be a stored file or a live stream; both use the same
// wire layout so the streaming server and the player share one parser.
//
// Wire layout (all integers little-endian):
//
//	File   := Header Packet* [Index]
//	Header := "WMP1" u32(size) payload
//	Packet := "PK" u16(stream) u8(kind) u8(flags) i64(pts) i64(dur)
//	          i64(send) u32(seq) u32(crc) u32(len) payload
//	Index  := "IX" u32(count) { i64(pts) u32(seq) }*
//
// A seek point, where a stream may start, is a video keyframe, or an audio
// keyframe when the header declares no video stream (Header.SeekPoint).
// Readers derive seek points from the packets. Nothing writes the Index
// object, so a stream ends with its last packet; a reader still checks
// and skips one that a container written by an older writer closes with.
//
// The header payload carries the version, live/DRM flags, title, per-stream
// properties (codec, bit rate, QoS), and the script-command table. Script
// commands may also travel in-band as packets on the script stream
// (ScriptPacket), which is how a live encoder session delivers them. A
// stored file gains commands after the fact by being published again with
// them (internal/publish), where the paper's §2.1 used the "Windows Media
// ASF Indexer".
//
// # Who may keep a packet
//
// A Reader parses packets in the one window it owns over its source, so
// its two read methods differ in who holds the bytes afterwards:
//
//   - Reader.ReadPacket lends. The Packet's Payload aliases the window
//     and is valid until the next call on that reader (the
//     bufio.Scanner.Bytes contract); a consumer that looks at each packet
//     once — the player, a verifier — reads without allocating. Whoever
//     keeps a packet past the next read takes Packet.Clone first. A lent
//     Payload also dies with the terminal error (io.EOF or any other):
//     the stream is over, so the reader hands its window to the next
//     reader, which fills it with another stream's bytes.
//   - Reader.ReadShared owns. The validated wire image is copied once
//     into the reader's Slab: a 64 KB buffer it shares with the packets
//     read around it (a large image that does not fit gets its own),
//     which nothing writes again once a packet is in it. Images that lie
//     back to back in one buffer leave in one write (Run). The Shared
//     may be held and written to any number of connections for as long
//     as anyone references it, and while it is referenced it pins its
//     slab. ReadTo copies into a slab the caller gives instead: a live
//     channel's or a stored asset's, whose buffers come from a node's one
//     Pool and go back to it once no one will read their packets again
//     (Slab.Renew); the pool lists at most two free buffers for each
//     one held. A packet that has no wire image yet is encoded into a
//     slab the same way (Slab.NewShared), or alone into an exactly sized
//     buffer (NewShared).
//
// A window starts at 16 KB and grows to the largest object the stream
// carried (at most 64 KB; a larger one gets a buffer of its own). A
// source that keeps it full — a bulk body, which arrives as fast as it
// is read — earns a 64 KB one after 48 KB of back-to-back full reads, so
// a stored body is read in 64 KB pieces while a paced stream keeps its
// small window. An ended reader hands its window to the next reader.
//
// ReadAll returns packets the caller owns. Build with -tags asfpoison
// (make test-poison) and the reader overwrites what it lent at the start
// of the next read, and its whole window before handing it on, so a
// caller that kept a lent Payload fails its tests.
package asf

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/media"
)

// Format constants.
const (
	// Version is the container format version this package writes.
	Version = 1
	// MaxPayload bounds a single packet payload, protecting readers from
	// corrupt length fields.
	MaxPayload = 16 << 20
	// MaxStrings bounds decoded string lengths.
	MaxStrings = 1 << 16
	// MaxStreams bounds the stream table size.
	MaxStreams = 64
	// MaxScripts bounds the header script table size.
	MaxScripts = 1 << 20
	// MaxIndexEntries bounds the size of an index object a reader skips.
	MaxIndexEntries = 1 << 24
)

// Header flags.
const (
	// FlagLive marks content generated by a live encoder session.
	FlagLive uint16 = 1 << 0
	// FlagDRM marks content whose rendering requires rights management
	// (the paper lists DRM as optional in authoring, mandatory in
	// rendering; we carry the flag and enforce it in the player).
	FlagDRM uint16 = 1 << 1
)

// Packet flags.
const (
	// PacketKeyframe marks a packet a decoder may start from.
	PacketKeyframe uint8 = 1 << 0
	// PacketLast marks the final packet of its stream.
	PacketLast uint8 = 1 << 1
)

// Magic markers.
var (
	headerMagic = [4]byte{'W', 'M', 'P', '1'}
	packetMagic = [2]byte{'P', 'K'}
	indexMagic  = [2]byte{'I', 'X'}
)

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("asf: bad magic")
	ErrBadVersion = errors.New("asf: unsupported version")
	ErrCorrupt    = errors.New("asf: corrupt data")
	ErrChecksum   = errors.New("asf: packet checksum mismatch")
	ErrLimit      = errors.New("asf: size limit exceeded")
	ErrNoHeader   = errors.New("asf: header not read yet")
	ErrClosed     = errors.New("asf: writer closed")
)

// StreamProps describes one elementary stream in the header.
type StreamProps struct {
	ID    media.StreamID
	Kind  media.Kind
	Codec string
	// BitsPerSecond is the stream's encoded bit rate.
	BitsPerSecond int64
	// MaxSkew and MaxJitter carry the stream's QoS for XOCPN channel
	// set-up at the receiving side.
	MaxSkew   time.Duration
	MaxJitter time.Duration
}

// ScriptCommand instructs the player to perform a task alongside rendering
// (§2.1): flipping a slide, showing an annotation, or any custom action.
type ScriptCommand struct {
	// At is the presentation time at which the command executes.
	At time.Duration
	// Type is the command class, e.g. "slide", "annotation", "url".
	Type string
	// Param is the command argument, e.g. the slide name.
	Param string
}

// Header is the container's header object.
type Header struct {
	Title    string
	Flags    uint16
	Duration time.Duration
	// PacketAlign is the nominal maximum payload size the encoder used.
	PacketAlign uint32
	Streams     []StreamProps
	Scripts     []ScriptCommand
}

// Live reports whether the content is a live stream.
func (h Header) Live() bool { return h.Flags&FlagLive != 0 }

// DRM reports whether rendering requires rights management.
func (h Header) DRM() bool { return h.Flags&FlagDRM != 0 }

// StreamByID returns the stream properties for id and true, or false.
func (h Header) StreamByID(id media.StreamID) (StreamProps, bool) {
	for _, s := range h.Streams {
		if s.ID == id {
			return s, true
		}
	}
	return StreamProps{}, false
}

// SeekPoint reports whether a stream with header h may start at p: p is a
// video keyframe, or an audio keyframe when h declares no video stream.
// Slide images and script commands carry PacketKeyframe too, since each
// decodes alone, but a stream started at one would feed its decoder
// frames that need a keyframe it never got.
func (h Header) SeekPoint(p Packet) bool {
	if !p.Keyframe() {
		return false
	}
	switch p.Kind {
	case media.KindVideo:
		return true
	case media.KindAudio:
		for _, s := range h.Streams {
			if s.Kind == media.KindVideo {
				return false
			}
		}
		return true
	}
	return false
}

// Validate checks header invariants.
func (h Header) Validate() error {
	if len(h.Streams) > MaxStreams {
		return fmt.Errorf("%w: %d streams", ErrLimit, len(h.Streams))
	}
	if len(h.Scripts) > MaxScripts {
		return fmt.Errorf("%w: %d scripts", ErrLimit, len(h.Scripts))
	}
	if h.Duration < 0 {
		return fmt.Errorf("asf: negative duration %v", h.Duration)
	}
	seen := make(map[media.StreamID]bool, len(h.Streams))
	var rate int64 // the streams' summed bit rate: a session's QoS
	for _, s := range h.Streams {
		if seen[s.ID] {
			return fmt.Errorf("asf: duplicate stream id %d", s.ID)
		}
		seen[s.ID] = true
		if !s.Kind.Valid() {
			return fmt.Errorf("asf: stream %d has invalid kind %d", s.ID, int(s.Kind))
		}
		if s.BitsPerSecond < 0 {
			return fmt.Errorf("asf: stream %d has negative bit rate", s.ID)
		}
		if s.BitsPerSecond > math.MaxInt64-rate {
			return fmt.Errorf("%w: summed bit rate overflows at stream %d", ErrLimit, s.ID)
		}
		rate += s.BitsPerSecond
	}
	for i, sc := range h.Scripts {
		if sc.At < 0 {
			return fmt.Errorf("asf: script %d at negative time %v", i, sc.At)
		}
		if sc.Type == "" {
			return fmt.Errorf("asf: script %d has empty type", i)
		}
	}
	return nil
}

// Packet is one multiplexed unit of stream data with its timing.
type Packet struct {
	Stream media.StreamID
	Kind   media.Kind
	Flags  uint8
	// PTS is the presentation timestamp.
	PTS time.Duration
	// Dur is the presented duration of the payload.
	Dur time.Duration
	// SendAt is the transmission deadline relative to stream start; the
	// server paces deliveries by this field.
	SendAt time.Duration
	// Seq is the container-wide packet sequence number, assigned by the
	// writer.
	Seq uint32
	// Payload is the (simulated) compressed data.
	Payload []byte
}

// Keyframe reports whether the packet is a decoder entry point.
func (p Packet) Keyframe() bool { return p.Flags&PacketKeyframe != 0 }

// Clone returns p with a Payload of its own: what a caller that keeps a
// packet lent by Reader.ReadPacket holds instead.
func (p Packet) Clone() Packet {
	p.Payload = bytes.Clone(p.Payload)
	return p
}

// Validate checks packet invariants.
func (p Packet) Validate() error {
	if !p.Kind.Valid() {
		return fmt.Errorf("asf: packet with invalid kind %d", int(p.Kind))
	}
	if p.PTS < 0 || p.Dur < 0 || p.SendAt < 0 {
		return fmt.Errorf("asf: packet with negative timing (pts %v dur %v send %v)", p.PTS, p.Dur, p.SendAt)
	}
	if len(p.Payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d bytes", ErrLimit, len(p.Payload))
	}
	return nil
}

// IndexEntry maps a presentation time to the sequence number of a seek
// point (Header.SeekPoint), enabling seeks into stored files.
type IndexEntry struct {
	PTS time.Duration
	Seq uint32
}

// Index is a stream's seek points in send order, derived from its
// packets (ReadAll).
type Index []IndexEntry

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func payloadCRC(b []byte) uint32 { return crc32.Checksum(b, crcTable) }
