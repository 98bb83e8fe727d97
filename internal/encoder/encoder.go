// Package encoder implements the paper's configuration module (§2.5): the
// user selects the sources/devices to encode from and how to output the
// encoded content — either a stored .asf file or a real-time broadcast
// after configuring the server HTTP port and URL — and selects the
// bandwidth profile that best describes the content.
package encoder

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/media"
)

// Errors returned by encoding sessions.
var (
	ErrNoSource = errors.New("encoder: no media source configured")
)

// Config describes one encoding session.
type Config struct {
	// Title is the content title written into the header.
	Title string
	// Profile is the bandwidth profile to encode with.
	Profile codec.Profile
	// Live marks the session as a real-time broadcast (FlagLive, in-band scripts).
	Live bool
	// DRM requests rights-managed output.
	DRM bool
	// Scripts are the temporal script commands to embed: in the header
	// for stored output, and additionally in-band for live output (clients
	// joining mid-broadcast never saw the header's table).
	Scripts []asf.ScriptCommand
	// LeadTime is how far ahead of a packet's PTS the server may transmit
	// it (send time = max(0, PTS - LeadTime)).
	LeadTime time.Duration
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.LeadTime < 0 {
		return fmt.Errorf("encoder: negative lead time %v", c.LeadTime)
	}
	for i, sc := range c.Scripts {
		if sc.Type == "" {
			return fmt.Errorf("encoder: script %d has empty type", i)
		}
		if sc.At < 0 {
			return fmt.Errorf("encoder: script %d at negative time", i)
		}
	}
	return nil
}

// Stats summarizes an encoding session.
type Stats struct {
	Packets      uint32
	VideoPackets int
	AudioPackets int
	ScriptPkts   int
	ImagePackets int
	Bytes        int64
	VideoBytes   int64
	AudioBytes   int64
	Duration     time.Duration
}

// BitsPerSecond returns the achieved aggregate bit rate (all streams).
func (s Stats) BitsPerSecond() int64 {
	if s.Duration <= 0 {
		return 0
	}
	return int64(float64(s.Bytes*8) / s.Duration.Seconds())
}

// Session is one configured encode. Construct with New, add sources, then
// run with EncodeTo.
type Session struct {
	cfg     Config
	sources []capture.Source
	images  []capture.Slide
}

// New creates a session.
func New(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg}, nil
}

// AddSource attaches a media source (camera, microphone, or file reader).
func (s *Session) AddSource(src capture.Source) {
	s.sources = append(s.sources, src)
}

// AddSlides attaches slide images to be carried on the image stream, each
// sent ahead of its display time.
func (s *Session) AddSlides(slides []capture.Slide) {
	s.images = append(s.images, slides...)
}

// Header builds the container header for this session.
func (s *Session) Header(duration time.Duration) asf.Header {
	var flags uint16
	if s.cfg.Live {
		flags |= asf.FlagLive
	}
	if s.cfg.DRM {
		flags |= asf.FlagDRM
	}
	h := asf.Header{
		Title:       s.cfg.Title,
		Flags:       flags,
		Duration:    duration,
		PacketAlign: 1400,
	}
	// Stored content carries the script table in the header; live content
	// carries commands in-band only (§2.1: commands are "added to live
	// streams through Windows Media Encoder") so clients joining
	// mid-broadcast see them exactly once.
	if !s.cfg.Live {
		h.Scripts = append(h.Scripts, s.cfg.Scripts...)
		sort.SliceStable(h.Scripts, func(i, j int) bool { return h.Scripts[i].At < h.Scripts[j].At })
	}

	seen := map[media.Kind]bool{}
	for _, src := range s.sources {
		seen[src.Kind()] = true
	}
	if seen[media.KindVideo] {
		h.Streams = append(h.Streams, asf.StreamProps{
			ID: media.StreamVideo, Kind: media.KindVideo, Codec: codec.VideoCodecName,
			BitsPerSecond: s.cfg.Profile.VideoBitsPerSecond,
			MaxSkew:       80 * time.Millisecond, MaxJitter: 40 * time.Millisecond,
		})
	}
	if seen[media.KindAudio] {
		h.Streams = append(h.Streams, asf.StreamProps{
			ID: media.StreamAudio, Kind: media.KindAudio, Codec: codec.AudioCodecName,
			BitsPerSecond: s.cfg.Profile.AudioBitsPerSecond,
			MaxSkew:       80 * time.Millisecond, MaxJitter: 40 * time.Millisecond,
		})
	}
	if len(s.images) > 0 {
		h.Streams = append(h.Streams, asf.StreamProps{
			ID: media.StreamImage, Kind: media.KindImage, Codec: "png",
			MaxSkew: 500 * time.Millisecond,
		})
	}
	if len(h.Scripts) > 0 || s.cfg.Live {
		h.Streams = append(h.Streams, asf.StreamProps{
			ID: media.StreamScript, Kind: media.KindScript, Codec: "script",
		})
	}
	return h
}

// queued is a packet awaiting multiplexing.
type queued struct {
	pkt asf.Packet
}

// EncodeTo drains all sources, multiplexes samples by send time, and writes
// the container to w. It returns session statistics.
func (s *Session) EncodeTo(w io.Writer) (Stats, error) {
	if len(s.sources) == 0 && len(s.images) == 0 {
		return Stats{}, ErrNoSource
	}

	var queue []queued
	var maxEnd time.Duration
	for _, src := range s.sources {
		for {
			sample, ok := src.Next()
			if !ok {
				break
			}
			sendAt := sample.PTS - s.cfg.LeadTime
			if sendAt < 0 {
				sendAt = 0
			}
			var flags uint8
			if sample.Keyframe {
				flags |= asf.PacketKeyframe
			}
			queue = append(queue, queued{pkt: asf.Packet{
				Stream:  sample.Stream,
				Kind:    sample.Kind,
				Flags:   flags,
				PTS:     sample.PTS,
				Dur:     sample.Duration,
				SendAt:  sendAt,
				Payload: sample.Data,
			}})
			if end := sample.PTS + sample.Duration; end > maxEnd {
				maxEnd = end
			}
		}
	}
	// Slides: send one display interval early where possible so the image
	// is resident when its script command fires.
	for _, slide := range s.images {
		sendAt := slide.At - s.cfg.LeadTime
		if sendAt < 0 {
			sendAt = 0
		}
		queue = append(queue, queued{pkt: asf.Packet{
			Stream:  media.StreamImage,
			Kind:    media.KindImage,
			Flags:   asf.PacketKeyframe,
			PTS:     slide.At,
			SendAt:  sendAt,
			Payload: slide.Image,
		}})
		if slide.At > maxEnd {
			maxEnd = slide.At
		}
	}
	// Live sessions carry script commands in-band.
	if s.cfg.Live {
		for _, cmd := range s.cfg.Scripts {
			pkt, err := asf.ScriptPacket(cmd, media.StreamScript)
			if err != nil {
				return Stats{}, fmt.Errorf("encoder: script packet: %w", err)
			}
			// Scripts ride the same send-ahead as media: with a LeadTime,
			// media due after the script is multiplexed before it, so a
			// script sent exactly at its fire time would present up to
			// LeadTime late behind that media (head-of-line blocking).
			if send := cmd.At - s.cfg.LeadTime; send > 0 {
				pkt.SendAt = send
			} else {
				pkt.SendAt = 0
			}
			queue = append(queue, queued{pkt: pkt})
			if cmd.At > maxEnd {
				maxEnd = cmd.At
			}
		}
	}

	// Multiplex by send time; PTS then stream break ties deterministically.
	sort.SliceStable(queue, func(i, j int) bool {
		a, b := queue[i].pkt, queue[j].pkt
		if a.SendAt != b.SendAt {
			return a.SendAt < b.SendAt
		}
		if a.PTS != b.PTS {
			return a.PTS < b.PTS
		}
		return a.Stream < b.Stream
	})

	// Mark each stream's final packet.
	lastIdx := make(map[media.StreamID]int)
	for i := range queue {
		lastIdx[queue[i].pkt.Stream] = i
	}
	for _, i := range lastIdx {
		queue[i].pkt.Flags |= asf.PacketLast
	}

	writer, err := asf.NewWriter(w, s.Header(maxEnd))
	if err != nil {
		return Stats{}, err
	}
	var stats Stats
	stats.Duration = maxEnd
	for _, q := range queue {
		if _, err := writer.WritePacket(q.pkt); err != nil {
			return stats, fmt.Errorf("encoder: write: %w", err)
		}
		stats.Bytes += int64(len(q.pkt.Payload))
		switch q.pkt.Kind {
		case media.KindVideo:
			stats.VideoPackets++
			stats.VideoBytes += int64(len(q.pkt.Payload))
		case media.KindAudio:
			stats.AudioPackets++
			stats.AudioBytes += int64(len(q.pkt.Payload))
		case media.KindScript:
			stats.ScriptPkts++
		case media.KindImage:
			stats.ImagePackets++
		}
	}
	if err := writer.Close(); err != nil {
		return stats, err
	}
	stats.Packets = writer.PacketCount()
	return stats, nil
}

// EncodeLecture is a convenience wrapper building a full session for a
// synthetic lecture: camera + microphone samples replayed from the lecture,
// slide images, and slide/annotation script commands.
func EncodeLecture(lec *capture.Lecture, cfg Config, w io.Writer) (Stats, error) {
	cfg.Title = lec.Title
	cfg.Profile = lec.Profile
	for _, s := range lec.Slides {
		cfg.Scripts = append(cfg.Scripts, asf.ScriptCommand{At: s.At, Type: "slide", Param: s.Name})
	}
	for _, a := range lec.Annotations {
		cfg.Scripts = append(cfg.Scripts, asf.ScriptCommand{At: a.At, Type: "annotation", Param: a.Text})
	}
	sess, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	sess.AddSource(&sliceSource{kind: media.KindVideo, samples: lec.Video})
	sess.AddSource(&sliceSource{kind: media.KindAudio, samples: lec.Audio})
	sess.AddSlides(lec.Slides)
	return sess.EncodeTo(w)
}

// sliceSource replays pre-captured samples as a Source.
type sliceSource struct {
	kind    media.Kind
	samples []media.Sample
	pos     int
}

var _ capture.Source = (*sliceSource)(nil)

func (s *sliceSource) Next() (media.Sample, bool) {
	if s.pos >= len(s.samples) {
		return media.Sample{}, false
	}
	out := s.samples[s.pos]
	s.pos++
	return out, true
}

func (s *sliceSource) Kind() media.Kind { return s.kind }

// NewSampleSource exposes a pre-captured sample slice as a capture.Source
// (the "encode a media file" path of §2.5).
func NewSampleSource(kind media.Kind, samples []media.Sample) capture.Source {
	cp := make([]media.Sample, len(samples))
	copy(cp, samples)
	return &sliceSource{kind: kind, samples: cp}
}
