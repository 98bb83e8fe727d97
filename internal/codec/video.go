package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/media"
)

// Video frame types.
const (
	frameI byte = 'I'
	frameP byte = 'P'
)

// VideoCodecName is the codec identifier written into stream properties,
// standing in for the paper's MPEG-4 video codec.
const VideoCodecName = "sim-mpeg4"

// frameHeaderSize is the fixed per-frame header this simulated codec
// embeds in each payload: u32 frame index, u8 type, u32 body length.
const frameHeaderSize = 4 + 1 + 4

// VideoEncoder is a deterministic simulated video encoder. It emits one
// sample per frame with MPEG-4-like GOP structure: I-frames at the GOP
// boundary carrying several times the bytes of P-frames, with mild
// pseudo-random complexity variation, rate-controlled so that each GOP's
// total size matches the profile's video bit-rate budget.
type VideoEncoder struct {
	profile  Profile
	rng      *rand.Rand
	frameIdx int
	// iWeight is how many P-frame "units" an I-frame costs.
	iWeight int
}

// NewVideoEncoder creates an encoder for the profile; the seed makes frame
// size variation reproducible.
func NewVideoEncoder(p Profile, seed int64) (*VideoEncoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &VideoEncoder{
		profile: p,
		rng:     rand.New(rand.NewSource(seed)),
		iWeight: 8,
	}, nil
}

// frameBudget returns the byte budget for the frame at the given GOP
// position: the GOP's byte budget split into iWeight units for the I-frame
// and 1 unit per P-frame.
func (e *VideoEncoder) frameBudget(gopPos int) int {
	gopBytes := float64(e.profile.VideoBitsPerSecond) / 8 *
		float64(e.profile.GOPFrames) / float64(e.profile.FrameRate)
	units := float64(e.iWeight + (e.profile.GOPFrames - 1))
	unit := gopBytes / units
	if gopPos == 0 {
		return int(unit * float64(e.iWeight))
	}
	return int(unit)
}

// NextFrame encodes and returns the next video frame as a timed sample.
func (e *VideoEncoder) NextFrame() media.Sample {
	gopPos := e.frameIdx % e.profile.GOPFrames
	budget := e.frameBudget(gopPos)
	// ±15% deterministic complexity variation, floor of the header size.
	jitter := 1 + (e.rng.Float64()-0.5)*0.3
	size := int(float64(budget) * jitter)
	if size < frameHeaderSize {
		size = frameHeaderSize
	}
	ftype := frameP
	if gopPos == 0 {
		ftype = frameI
	}
	payload := e.buildFrame(uint32(e.frameIdx), ftype, size-frameHeaderSize)

	s := media.Sample{
		Stream:   media.StreamVideo,
		Kind:     media.KindVideo,
		PTS:      time.Duration(e.frameIdx) * e.profile.FrameInterval(),
		Duration: e.profile.FrameInterval(),
		Keyframe: ftype == frameI,
		Data:     payload,
	}
	e.frameIdx++
	return s
}

// buildFrame constructs the simulated bitstream: header + deterministic
// filler bytes.
func (e *VideoEncoder) buildFrame(idx uint32, ftype byte, bodyLen int) []byte {
	buf := make([]byte, frameHeaderSize+bodyLen)
	binary.LittleEndian.PutUint32(buf[0:4], idx)
	buf[4] = ftype
	binary.LittleEndian.PutUint32(buf[5:9], uint32(bodyLen))
	for i := 0; i < bodyLen; i++ {
		buf[frameHeaderSize+i] = byte(idx + uint32(i)*2654435761)
	}
	return buf
}

// EncodeDuration produces all frames covering the given duration.
func (e *VideoEncoder) EncodeDuration(d time.Duration) []media.Sample {
	frames := int(d / e.profile.FrameInterval())
	out := make([]media.Sample, 0, frames)
	for i := 0; i < frames; i++ {
		out = append(out, e.NextFrame())
	}
	return out
}

// VideoFrameInfo is the decoder's view of one frame.
type VideoFrameInfo struct {
	Index    uint32
	Keyframe bool
	Bytes    int
}

// Errors returned by the decoder.
var (
	ErrTruncatedFrame = errors.New("codec: truncated video frame")
	ErrFrameCorrupt   = errors.New("codec: corrupt video frame")
)

// DecodeVideoFrame validates one simulated frame payload.
func DecodeVideoFrame(data []byte) (VideoFrameInfo, error) {
	if len(data) < frameHeaderSize {
		return VideoFrameInfo{}, ErrTruncatedFrame
	}
	idx := binary.LittleEndian.Uint32(data[0:4])
	ftype := data[4]
	bodyLen := binary.LittleEndian.Uint32(data[5:9])
	if ftype != frameI && ftype != frameP {
		return VideoFrameInfo{}, fmt.Errorf("%w: frame type %q", ErrFrameCorrupt, ftype)
	}
	if int(bodyLen) != len(data)-frameHeaderSize {
		return VideoFrameInfo{}, fmt.Errorf("%w: body length %d, payload %d",
			ErrFrameCorrupt, bodyLen, len(data)-frameHeaderSize)
	}
	return VideoFrameInfo{Index: idx, Keyframe: ftype == frameI, Bytes: len(data)}, nil
}

// VideoDecoder tracks decodability across a frame sequence with losses:
// after a lost or corrupt frame, P-frames are undecodable until the next
// I-frame (MPEG-style prediction chains). A P-frame that does not carry
// the index after the frame before it lost its reference in transport,
// whether or not anyone called Lose.
type VideoDecoder struct {
	// Decodable counts frames that could be presented.
	Decodable int
	// Broken counts frames skipped due to a broken prediction chain.
	Broken int
	// Corrupt counts frames that failed validation.
	Corrupt int
	chainOK bool
	next    uint32 // the index of the frame after the last one fed
}

// Feed consumes the next received frame payload.
func (d *VideoDecoder) Feed(data []byte) {
	info, err := DecodeVideoFrame(data)
	if err != nil {
		d.Corrupt++
		d.chainOK = false
		return
	}
	if info.Keyframe {
		d.chainOK = true
	} else if info.Index != d.next {
		d.chainOK = false
	}
	d.next = info.Index + 1
	if d.chainOK {
		d.Decodable++
	} else {
		d.Broken++
	}
}

// Lose informs the decoder that a frame was lost in transport.
func (d *VideoDecoder) Lose() {
	d.chainOK = false
	d.Broken++
}

// Total returns the number of frames the decoder has accounted for.
func (d *VideoDecoder) Total() int { return d.Decodable + d.Broken + d.Corrupt }
