// Package player implements the client side of the Lecture-on-Demand
// system: it consumes a container stream from an io.Reader (a file, or a
// response body the internal/client session SDK opened), demultiplexes
// packets, executes script commands (slide flips, annotations) in time
// with the media, and records exactly what would have been rendered and
// when, so synchronization skew is measurable. It does no networking.
//
// The paper's player is "the browser with the windows media services"; the
// substitution here replaces pixels with an instrumented event log — the
// timing behaviour, which is what the experiments measure, is identical.
package player

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/asf"
	"repro/internal/codec"
	"repro/internal/media"
	"repro/internal/vclock"
)

// Errors.
var (
	// ErrDRMNotLicensed is returned when content requires rights management
	// and the player has no license callback (rendering DRM is mandatory
	// per §2.1).
	ErrDRMNotLicensed = errors.New("player: content requires DRM license")
)

// EventKind classifies render-log entries.
type EventKind int

// Event kinds.
const (
	EventVideoFrame EventKind = iota + 1
	EventAudioBlock
	EventSlideShown
	EventAnnotation
	EventScript
	EventStall
)

var eventNames = map[EventKind]string{
	EventVideoFrame: "video",
	EventAudioBlock: "audio",
	EventSlideShown: "slide",
	EventAnnotation: "annotation",
	EventScript:     "script",
	EventStall:      "stall",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one rendered item: what was presented, when the media timeline
// said it should appear (PTS), and when the player actually presented it
// (At, on the playback clock).
type Event struct {
	Kind  EventKind
	PTS   time.Duration
	At    time.Duration
	Param string
}

// A session's render log is written into chunks of eventChunk events and
// built at its exact length once, when Play returns; the chunks, cleared,
// go to the next session. They live on a leaky free list of at most
// maxIdleChunks (160 KB), not in a sync.Pool, which every GC empties.
const (
	eventChunk    = 256
	maxIdleChunks = 16
)

var idleChunks = make(chan *[eventChunk]Event, maxIdleChunks)

// eventLog is the render log while a session plays.
type eventLog struct {
	chunks []*[eventChunk]Event
	n      int // events in the last chunk
}

func (l *eventLog) add(e Event) {
	if len(l.chunks) == 0 || l.n == eventChunk {
		var c *[eventChunk]Event
		select {
		case c = <-idleChunks:
		default:
			c = new([eventChunk]Event)
		}
		l.chunks = append(l.chunks, c)
		l.n = 0
	}
	l.chunks[len(l.chunks)-1][l.n] = e
	l.n++
}

// events returns the log in one slice of its exact length (nil when it is
// empty) and hands the chunks on, cleared, so none keeps a Param.
func (l *eventLog) events() []Event {
	if len(l.chunks) == 0 {
		return nil
	}
	out := make([]Event, (len(l.chunks)-1)*eventChunk+l.n)
	for i, c := range l.chunks {
		clear(c[:copy(out[i*eventChunk:], c[:])])
		select {
		case idleChunks <- c:
		default:
		}
	}
	*l = eventLog{}
	return out
}

// Skew is the presentation lateness: At - PTS (never negative; the player
// does not present early).
func (e Event) Skew() time.Duration { return e.At - e.PTS }

// Metrics summarizes a playback session.
type Metrics struct {
	Events       []Event
	VideoFrames  int
	AudioBlocks  int
	SlidesShown  int
	Annotations  int
	Stalls       int
	StallTime    time.Duration
	MaxSkew      time.Duration
	MeanSkew     time.Duration
	Decodable    int
	BrokenFrames int
	BytesRead    int64
	Duration     time.Duration
}

// SlideEvents returns the slide-flip events in order.
func (m *Metrics) SlideEvents() []Event {
	var out []Event
	for _, e := range m.Events {
		if e.Kind == EventSlideShown {
			out = append(out, e)
		}
	}
	return out
}

// SkewWithin reports whether every media event's skew is at most max.
func (m *Metrics) SkewWithin(max time.Duration) bool {
	return m.MaxSkew <= max
}

// Options configures a playback session.
type Options struct {
	// Clock drives presentation; nil uses the real clock.
	Clock vclock.Clock
	// JitterBufferDepth is how many packets are buffered before playback
	// starts (absorbs network jitter). Zero disables pre-buffering.
	JitterBufferDepth int
	// Realtime, when true, makes the player wait on the clock until each
	// item's PTS before presenting it; when false the player presents as
	// fast as packets arrive (used for analytic runs where the transport
	// already paced), and an item's At is the instant the source Read
	// that completed its packet returned (for a packet the jitter buffer
	// held, the Read that completed the buffer), counted from the Read
	// that completed the header: the clock is read once per Read, not
	// once per packet.
	Realtime bool
	// AnchorToFirstPacket, with Realtime, starts the presentation
	// schedule when playback begins — at the first packet's dequeue,
	// which with a JitterBufferDepth is the moment the prebuffer
	// finishes filling, exactly like a real player that buffers before
	// it starts rendering. The deadline for an item with timestamp t
	// becomes playbackStart + (t - firstPacketPTS). Connection setup,
	// server startup delay, and the deliberate buffering delay then
	// shift the whole schedule instead of counting every item as late,
	// so Stalls and skew measure genuine mid-stream rebuffering — what
	// a load benchmark wants — rather than constant startup offset. It
	// also makes seeked and live catch-up streams (whose first PTS is
	// far from zero) playable in realtime mode. Metrics report
	// presentation times on the anchored schedule, and header scripts
	// the stream skipped past (their time is before the first packet)
	// are treated as catch-up content due at the anchor rather than as
	// infinitely late.
	AnchorToFirstPacket bool
	// StallTolerance is how late an item may present before it counts
	// as a stall event (Realtime only). OS timer and scheduler
	// precision make a few milliseconds of lateness unavoidable, so a
	// load benchmark sets a human-scale threshold here to keep Stalls
	// meaning rebuffers; lateness within the tolerance still shows in
	// the skew statistics. Zero counts every late item.
	StallTolerance time.Duration
	// LicenseDRM, when true, simulates holding a playback license.
	LicenseDRM bool
}

// Player plays one container stream.
type Player struct {
	opts Options
}

// New creates a player.
func New(opts Options) *Player {
	if opts.Clock == nil {
		opts.Clock = vclock.Real{}
	}
	return &Player{opts: opts}
}

// arrivalSource is an arrival-order play's source: it reads the clock
// once per Read, and at is the instant the last Read returned.
type arrivalSource struct {
	r     io.Reader
	clock vclock.Clock
	at    time.Time
}

func (s *arrivalSource) Read(b []byte) (int, error) {
	n, err := s.r.Read(b)
	s.at = s.clock.Now()
	return n, err
}

// Play consumes the container from r, rendering to the event log.
func (p *Player) Play(r io.Reader) (*Metrics, error) {
	clock := p.opts.Clock
	// One allocation holds the Metrics Play returns and the source an
	// arrival-order play reads through; the source is let go on return,
	// so a caller that keeps the Metrics does not keep r.
	play := &struct {
		m   Metrics
		src arrivalSource
	}{}
	defer func() { play.src = arrivalSource{} }()
	m := &play.m
	src := r
	if !p.opts.Realtime {
		play.src = arrivalSource{r: r, clock: clock}
		src = &play.src
	}
	reader := asf.NewReader(src)
	h, err := reader.ReadHeader()
	if err != nil {
		return nil, fmt.Errorf("player: %w", err)
	}
	if h.DRM() && !p.opts.LicenseDRM {
		return nil, ErrDRMNotLicensed
	}

	var log eventLog
	// An arrival-order play counts from the Read that completed the
	// header and presents each item at its packet's stamp; only realtime
	// playback reads the clock as it presents.
	start := play.src.at
	if p.opts.Realtime {
		start = clock.Now()
	}
	// With AnchorToFirstPacket, start is re-based to the first packet's
	// arrival and ptsBase to its timestamp; present() then reports
	// instants on the anchored schedule so Event.Skew stays At - PTS.
	var ptsBase time.Duration
	anchored := false
	elapsed := func() time.Duration { return clock.Now().Sub(start) }
	present := func() time.Duration {
		if !p.opts.Realtime {
			return play.src.at.Sub(start)
		}
		return elapsed() + ptsBase
	}

	// Pending header scripts sorted by time.
	scripts := append([]asf.ScriptCommand(nil), h.Scripts...)
	sort.SliceStable(scripts, func(i, j int) bool { return scripts[i].At < scripts[j].At })
	execScripts := func(upTo time.Duration) {
		for len(scripts) > 0 && scripts[0].At <= upTo {
			cmd := scripts[0]
			if anchored && cmd.At < ptsBase {
				// The stream starts past this script (seek tail or live
				// catch-up): it presents as join-time catch-up content,
				// due at the anchor, not late since stream time zero.
				cmd.At = ptsBase
			}
			p.renderScript(m, &log, cmd, present())
			scripts = scripts[1:]
		}
	}

	var vdec codec.VideoDecoder

	// Jitter buffer: pre-read packets before starting the clock. They are
	// the only packets held across a read, so the only ones cloned.
	var buffer []asf.Packet
	fill := p.opts.JitterBufferDepth
	for len(buffer) < fill {
		pkt, err := reader.ReadPacket()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("player: prebuffer: %w", err)
		}
		buffer = append(buffer, pkt.Clone())
	}

	next := func() (asf.Packet, bool, error) {
		if len(buffer) > 0 {
			pkt := buffer[0]
			buffer = buffer[1:]
			return pkt, true, nil
		}
		pkt, err := reader.ReadPacket()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return asf.Packet{}, false, nil
			}
			return asf.Packet{}, false, err
		}
		return pkt, true, nil
	}

	for {
		pkt, ok, err := next()
		if err != nil {
			m.Events = log.events()
			return m, fmt.Errorf("player: %w", err)
		}
		if !ok {
			break
		}
		m.BytesRead += int64(len(pkt.Payload))

		if p.opts.Realtime && p.opts.AnchorToFirstPacket && !anchored {
			anchored = true
			start = clock.Now()
			ptsBase = pkt.PTS
		}
		if p.opts.Realtime {
			// Wait until the item is due; arriving late beyond the
			// tolerance counts as a stall.
			if wait := pkt.PTS - present(); wait > 0 {
				//lodlint:allow bare-ctx Play takes no context; its caller ends it by closing the source
				clock.SleepUntil(context.TODO(), start.Add(pkt.PTS-ptsBase))
			} else if wait < 0 && -wait > p.opts.StallTolerance {
				m.Stalls++
				m.StallTime += -wait
				log.add(Event{Kind: EventStall, PTS: pkt.PTS, At: present()})
			}
		}
		now := present()
		execScripts(pkt.PTS)

		switch pkt.Kind {
		case media.KindVideo:
			vdec.Feed(pkt.Payload)
			m.VideoFrames++
			log.add(Event{Kind: EventVideoFrame, PTS: pkt.PTS, At: now})
		case media.KindAudio:
			m.AudioBlocks++
			log.add(Event{Kind: EventAudioBlock, PTS: pkt.PTS, At: now})
		case media.KindImage:
			// Images are cached on arrival; the script command shows them.
		case media.KindScript:
			cmd, err := asf.ParseScriptPacket(pkt)
			if err != nil {
				m.Events = log.events()
				return m, fmt.Errorf("player: %w", err)
			}
			p.renderScript(m, &log, cmd, now)
		}
	}
	execScripts(1<<62 - 1)

	m.Decodable = vdec.Decodable
	m.BrokenFrames = vdec.Broken
	m.Duration = elapsed()
	m.Events = log.events()
	p.finalizeSkew(m)
	return m, nil
}

// renderScript turns a script command into a rendered event.
func (p *Player) renderScript(m *Metrics, log *eventLog, cmd asf.ScriptCommand, at time.Duration) {
	kind := EventScript
	switch cmd.Type {
	case "slide":
		kind = EventSlideShown
		m.SlidesShown++
	case "annotation":
		kind = EventAnnotation
		m.Annotations++
	}
	log.add(Event{Kind: kind, PTS: cmd.At, At: at, Param: cmd.Param})
}

// finalizeSkew computes MaxSkew and MeanSkew over every non-stall
// event, clamped at zero (the player never presents early).
func (p *Player) finalizeSkew(m *Metrics) {
	if !p.opts.Realtime {
		return // arrival-order playback has no meaningful wall skew
	}
	var total time.Duration
	var count int
	for _, e := range m.Events {
		if e.Kind == EventStall {
			continue
		}
		skew := e.Skew()
		if skew < 0 {
			skew = 0
		}
		if skew > m.MaxSkew {
			m.MaxSkew = skew
		}
		total += skew
		count++
	}
	if count > 0 {
		m.MeanSkew = total / time.Duration(count)
	}
}
