// Package dynamic implements the paper's differentiator claim (§1): unlike
// the commercial authoring tools it surveys, WMPS supports *dynamic
// presentations* — "a presentation generated by the above systems will
// stay as the form it was created; different audience watches the same
// presentation over and over again", whereas the content tree lets each
// audience watch a presentation fitted to them.
//
// Given an audience's available time and link bandwidth, the planner picks
// the deepest content-tree level that fits the time budget and the richest
// bandwidth profile that fits the link, and compiles the level extraction
// into an interactive control timeline (seeks over the stored asset) that
// plays exactly the selected segments.
package dynamic

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/contenttree"
	"repro/internal/player"
)

// Audience describes one viewer's constraints.
type Audience struct {
	// AvailableTime bounds how long the presentation may run; zero means
	// unlimited (watch everything).
	AvailableTime time.Duration
	// BandwidthBps is the viewer's link bandwidth; zero means unlimited.
	BandwidthBps int64
}

// Plan is a per-audience presentation: which abstraction level plays,
// which segments that includes, at which encoding profile, and the control
// timeline realizing it over the full stored asset.
type Plan struct {
	// Level is the chosen content-tree level.
	Level int
	// Profile is the chosen bandwidth profile.
	Profile codec.Profile
	// SegmentIDs are the content-tree nodes included, in play order.
	SegmentIDs []string
	// Duration is the planned presentation time.
	Duration time.Duration
	// Controls seek the stored asset so only the selected segments play.
	Controls []player.Control
}

// Errors.
var (
	ErrNoFit = errors.New("dynamic: even the level-0 summary exceeds the available time")
)

// interval is one selected media range.
type interval struct {
	id    string
	start time.Duration
	end   time.Duration
}

// PlanFor fits a presentation to the audience: the deepest level whose
// cumulative presentation time fits AvailableTime, and the richest profile
// fitting BandwidthBps. The slides give each tree node its media timeline
// position (nodes are slide intervals, as produced by publish's
// BuildContentTree); total is the full asset duration.
func PlanFor(tree *contenttree.Tree, slides []capture.Slide, total time.Duration, aud Audience) (*Plan, error) {
	if tree == nil || tree.Root() == nil {
		return nil, errors.New("dynamic: empty content tree")
	}
	highest := tree.HighestLevel()

	level := -1
	if aud.AvailableTime <= 0 {
		level = highest
	} else {
		for q := highest; q >= 0; q-- {
			if tree.PresentationTime(q) <= aud.AvailableTime {
				level = q
				break
			}
		}
		if level < 0 {
			return nil, fmt.Errorf("%w (summary %v > budget %v)",
				ErrNoFit, tree.PresentationTime(0), aud.AvailableTime)
		}
	}

	profile := codec.Ladder()[len(codec.Ladder())-1]
	if aud.BandwidthBps > 0 {
		profile = codec.ForBandwidth(aud.BandwidthBps)
	}

	// Map tree nodes to media intervals. The root carries the intro
	// interval (first slide); other nodes are named after their slides.
	starts := make(map[string]time.Duration, len(slides))
	ends := make(map[string]time.Duration, len(slides))
	for i, s := range slides {
		end := total
		if i+1 < len(slides) {
			end = slides[i+1].At
		}
		starts[s.Name] = s.At
		ends[s.Name] = end
	}
	rootID := tree.Root().ID

	var selected []interval
	for _, n := range tree.ExtractLevel(level) {
		id := n.ID
		key := id
		if id == rootID {
			if len(slides) == 0 {
				return nil, errors.New("dynamic: no slides to anchor the root interval")
			}
			key = slides[0].Name
		}
		s, okS := starts[key]
		e, okE := ends[key]
		if !okS || !okE {
			return nil, fmt.Errorf("dynamic: tree node %q has no media interval", id)
		}
		selected = append(selected, interval{id: id, start: s, end: e})
	}
	sort.SliceStable(selected, func(i, j int) bool { return selected[i].start < selected[j].start })

	plan := &Plan{Level: level, Profile: profile}
	for _, iv := range selected {
		plan.SegmentIDs = append(plan.SegmentIDs, iv.id)
		plan.Duration += iv.end - iv.start
	}

	// Compile to a control timeline: play each selected interval in order,
	// seeking across the gaps. Wall time advances only through played
	// intervals.
	var wall time.Duration
	var pos time.Duration // current media position
	for _, iv := range selected {
		if iv.start != pos {
			plan.Controls = append(plan.Controls, player.Control{
				Kind: player.CtlSeek, At: wall, Target: iv.start,
			})
		}
		wall += iv.end - iv.start
		pos = iv.end
	}
	// Stop at the end of the last selected interval (the stored asset may
	// continue past it when the plan drops a tail segment).
	if pos < total {
		plan.Controls = append(plan.Controls, player.Control{Kind: player.CtlPause, At: wall})
	}
	return plan, nil
}
