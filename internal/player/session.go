package player

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/asf"
	"repro/internal/media"
)

// ControlKind enumerates interactive playback controls — the "dynamical
// operations of users" (§1) the extended timed Petri net was introduced to
// handle.
type ControlKind int

// Controls.
const (
	CtlPause ControlKind = iota + 1
	CtlResume
	CtlSeek
)

// String implements fmt.Stringer.
func (k ControlKind) String() string {
	switch k {
	case CtlPause:
		return "pause"
	case CtlResume:
		return "resume"
	case CtlSeek:
		return "seek"
	default:
		return fmt.Sprintf("control(%d)", int(k))
	}
}

// Control is one timed user action on the playback session. At is the
// wall-clock offset from playback start at which the user acts; Target is
// the media position for CtlSeek.
type Control struct {
	Kind   ControlKind
	At     time.Duration
	Target time.Duration
}

// SessionEvent is one presented item of an interactive session: the
// packet's media time (PTS) and the wall time at which it was presented.
type SessionEvent struct {
	Kind media.Kind
	PTS  time.Duration
	Wall time.Duration
}

// SessionResult is the outcome of an interactive playback session.
type SessionResult struct {
	Events []SessionEvent
	// SlideFlips are the script commands executed, with wall times.
	SlideFlips []SessionEvent
	// TotalPaused is the accumulated pause time.
	TotalPaused time.Duration
	// Seeks counts executed seeks.
	Seeks int
	// EndedAt is the wall time at which the last item was presented.
	EndedAt time.Duration
}

// EventsInWallOrder reports whether presentation wall times are
// non-decreasing — the basic sanity invariant of any control timeline.
func (r *SessionResult) EventsInWallOrder() bool {
	for i := 1; i < len(r.Events); i++ {
		if r.Events[i].Wall < r.Events[i-1].Wall {
			return false
		}
	}
	return true
}

// Errors.
var (
	ErrBadControl = errors.New("player: invalid control sequence")
)

// segment is one contiguous run of media time played at a wall offset:
// wall(w) = mediaStart + (w - wallStart) for w in [wallStart, wallEnd).
type segment struct {
	wallStart  time.Duration
	wallEnd    time.Duration // exclusive; maxDuration for the last
	mediaStart time.Duration
}

const maxDuration = time.Duration(1<<63 - 1)

// RunSession deterministically plays a stored asset under a sequence of
// user controls. Pause freezes the media position; resume continues it;
// seek jumps the media position to the last seek point at or before the
// target (asf.Header.SeekPoint, §2.1's seek support) — where a server
// asked for ?start=target starts the stream. Packets are presented when
// the playback position passes their PTS; seeking backward replays,
// seeking forward skips.
func RunSession(header asf.Header, packets []asf.Packet, controls []Control) (*SessionResult, error) {
	var index asf.Index
	for _, p := range packets {
		if header.SeekPoint(p) {
			index = append(index, asf.IndexEntry{PTS: p.PTS, Seq: p.Seq})
		}
	}
	ctls := make([]Control, len(controls))
	copy(ctls, controls)
	sort.SliceStable(ctls, func(i, j int) bool { return ctls[i].At < ctls[j].At })

	// Build the wall→media timeline by walking the controls.
	var segs []segment
	res := &SessionResult{}
	paused := false
	var media0 time.Duration // media position at the current anchor
	var wall0 time.Duration  // wall time of the current anchor
	openSegment := func(wall, mediaAt time.Duration) {
		segs = append(segs, segment{wallStart: wall, wallEnd: maxDuration, mediaStart: mediaAt})
	}
	closeSegment := func(wall time.Duration) {
		if len(segs) > 0 && segs[len(segs)-1].wallEnd == maxDuration {
			segs[len(segs)-1].wallEnd = wall
		}
	}
	openSegment(0, 0)

	for _, c := range ctls {
		if c.At < 0 {
			return nil, fmt.Errorf("%w: control at negative time", ErrBadControl)
		}
		switch c.Kind {
		case CtlPause:
			if paused {
				return nil, fmt.Errorf("%w: pause while paused", ErrBadControl)
			}
			media0 += c.At - wall0
			wall0 = c.At
			closeSegment(c.At)
			paused = true
		case CtlResume:
			if !paused {
				return nil, fmt.Errorf("%w: resume while playing", ErrBadControl)
			}
			res.TotalPaused += c.At - wall0
			wall0 = c.At
			openSegment(c.At, media0)
			paused = false
		case CtlSeek:
			if c.Target < 0 {
				return nil, fmt.Errorf("%w: seek to negative position", ErrBadControl)
			}
			var target time.Duration
			if i, ok := index.Locate(c.Target); ok {
				target = index[i].PTS
			}
			res.Seeks++
			if !paused {
				media0 += c.At - wall0
				closeSegment(c.At)
				openSegment(c.At, target)
			}
			media0 = target
			wall0 = c.At
		default:
			return nil, fmt.Errorf("%w: unknown control %d", ErrBadControl, int(c.Kind))
		}
	}
	if paused {
		// Session ends paused: nothing after the pause plays.
		closeSegment(wall0)
	}

	// Present packets: for each timeline segment, every packet whose PTS
	// falls in [mediaStart, mediaStart + segLen) is presented at
	// wallStart + (PTS - mediaStart).
	sorted := make([]asf.Packet, len(packets))
	copy(sorted, packets)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PTS < sorted[j].PTS })

	var scripts []asf.ScriptCommand
	scripts = append(scripts, header.Scripts...)
	sort.SliceStable(scripts, func(i, j int) bool { return scripts[i].At < scripts[j].At })

	for _, s := range segs {
		segLen := s.wallEnd - s.wallStart
		if s.wallEnd == maxDuration {
			segLen = maxDuration - s.wallStart
		}
		for _, p := range sorted {
			off := p.PTS - s.mediaStart
			if off < 0 || off >= segLen {
				continue
			}
			wall := s.wallStart + off
			res.Events = append(res.Events, SessionEvent{Kind: p.Kind, PTS: p.PTS, Wall: wall})
			if wall > res.EndedAt {
				res.EndedAt = wall
			}
		}
		for _, sc := range scripts {
			off := sc.At - s.mediaStart
			if off < 0 || off >= segLen {
				continue
			}
			if sc.Type != "slide" {
				continue
			}
			wall := s.wallStart + off
			res.SlideFlips = append(res.SlideFlips, SessionEvent{
				Kind: media.KindScript, PTS: sc.At, Wall: wall,
			})
		}
	}
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].Wall < res.Events[j].Wall })
	sort.SliceStable(res.SlideFlips, func(i, j int) bool { return res.SlideFlips[i].Wall < res.SlideFlips[j].Wall })
	return res, nil
}
