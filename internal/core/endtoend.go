package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/media"
	"repro/internal/netsim"
)

// E2EConfig parameterizes the end-to-end synchronization experiment (E7,
// Figure 7): a lecture is encoded, streamed through a simulated network
// link, and presented by a client with a start-up (jitter) buffer delay.
type E2EConfig struct {
	Lecture capture.LectureConfig
	Link    netsim.Link
	// StartupDelay is the client's pre-buffering delay before playback
	// begins; larger values absorb more network jitter.
	StartupDelay time.Duration
	// LeadTime is how far ahead of PTS the server may send packets.
	LeadTime time.Duration
	// PacketOverhead models per-packet header bytes on the wire.
	PacketOverhead int
}

// E2EResult reports the experiment outcome.
type E2EResult struct {
	// Packets and Lost count transport outcomes.
	Packets int
	Lost    int
	// MaxSkew and MeanSkew are presentation lateness of delivered media
	// relative to the delayed playback clock (PTS + StartupDelay).
	MaxSkew  time.Duration
	MeanSkew time.Duration
	// LateEvents counts media items that missed their presentation time.
	LateEvents int
	// SlideFlips is the number of slide commands presented.
	SlideFlips int
	// MaxSlideSkew is the worst video-vs-slide offset at flip instants.
	MaxSlideSkew time.Duration
	// DecodableFrac is the fraction of video frames decodable after loss.
	DecodableFrac float64
	// AchievedBitsPerSecond is the delivered media rate.
	AchievedBitsPerSecond int64
}

// Synchronized reports whether the run meets the given lip-sync and slide
// tolerances — the paper's qualitative claim ("view live video … along
// with synchronized images of his presentation slides") made measurable.
func (r *E2EResult) Synchronized(mediaTol, slideTol time.Duration) bool {
	return r.MaxSkew <= mediaTol && r.MaxSlideSkew <= slideTol
}

// RunEndToEnd executes the E7 experiment deterministically (analytic time,
// no goroutines): encode → link → client presentation model.
func RunEndToEnd(cfg E2EConfig) (*E2EResult, error) {
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	if cfg.StartupDelay < 0 || cfg.LeadTime < 0 {
		return nil, errors.New("core: negative delay")
	}
	lec, err := capture.NewLecture(cfg.Lecture)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{LeadTime: cfg.LeadTime}, &buf); err != nil {
		return nil, err
	}
	r := asf.NewReader(bytes.NewReader(buf.Bytes()))
	h, err := r.ReadHeader()
	if err != nil {
		return nil, err
	}

	link := cfg.Link
	link.Reset()

	type arrival struct {
		pkt asf.Packet
		at  time.Duration
	}
	var arrivals []arrival
	res := &E2EResult{}
	var vdec codec.VideoDecoder
	var deliveredBytes int64

	for {
		pkt, err := r.ReadPacket()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("core: e2e read: %w", err)
		}
		res.Packets++
		d := link.Transmit(pkt.SendAt, len(pkt.Payload)+cfg.PacketOverhead)
		if d.Lost {
			res.Lost++
			if pkt.Kind == media.KindVideo {
				vdec.Lose()
			}
			continue
		}
		deliveredBytes += int64(len(pkt.Payload))
		arrivals = append(arrivals, arrival{pkt: pkt.Clone(), at: d.ArrivedAt})
	}
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })

	// Client model: playback clock runs at PTS + StartupDelay; an item is
	// presented at max(due, arrival). Video frames feed the loss-aware
	// decoder in arrival order.
	var totalSkew time.Duration
	var skewCount int
	videoPresent := make(map[time.Duration]time.Duration) // PTS -> presented-at
	for _, a := range arrivals {
		if a.pkt.Kind == media.KindVideo {
			vdec.Feed(a.pkt.Payload)
		}
		due := a.pkt.PTS + cfg.StartupDelay
		presented := due
		if a.at > due {
			presented = a.at
			res.LateEvents++
		}
		skew := presented - due
		if skew > res.MaxSkew {
			res.MaxSkew = skew
		}
		totalSkew += skew
		skewCount++
		if a.pkt.Kind == media.KindVideo {
			videoPresent[a.pkt.PTS] = presented
		}
	}
	if skewCount > 0 {
		res.MeanSkew = totalSkew / time.Duration(skewCount)
	}

	// Slide commands execute on the playback clock (the header carried
	// them before playback began). The video-vs-slide skew at a flip is
	// how late the video frame nearest the flip instant was presented.
	frameIval := lec.Profile.FrameInterval()
	for _, sc := range h.Scripts {
		if sc.Type != "slide" {
			continue
		}
		res.SlideFlips++
		flipAt := sc.At + cfg.StartupDelay
		framePTS := sc.At - (sc.At % frameIval)
		if presented, ok := videoPresent[framePTS]; ok {
			skew := presented - flipAt
			if skew < 0 {
				skew = -skew
			}
			if skew > res.MaxSlideSkew {
				res.MaxSlideSkew = skew
			}
		}
	}

	if total := vdec.Total(); total > 0 {
		res.DecodableFrac = float64(vdec.Decodable) / float64(total)
	}
	if d := lec.Duration; d > 0 {
		res.AchievedBitsPerSecond = int64(float64(deliveredBytes*8) / d.Seconds())
	}
	return res, nil
}
