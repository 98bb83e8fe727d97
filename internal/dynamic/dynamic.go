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
// into the ranges of the stored asset that play: exactly the selected
// segments, in play order.
package dynamic

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/contenttree"
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
// which segments that includes, at which encoding profile, and the ranges
// of the full stored asset that realize it.
type Plan struct {
	// Level is the chosen content-tree level.
	Level int
	// Profile is the chosen bandwidth profile.
	Profile codec.Profile
	// SegmentIDs are the content-tree nodes included, in play order.
	SegmentIDs []string
	// Duration is the planned presentation time.
	Duration time.Duration
	// Ranges are the stored asset's media intervals that play, in play
	// order; they are disjoint and sum to Duration.
	Ranges []Range
}

// Range is one interval [Start, End) of the stored asset's media time.
type Range struct {
	Start, End time.Duration
}

// Errors.
var (
	ErrNoFit = errors.New("dynamic: even the level-0 summary exceeds the available time")
)

// interval is one selected media range and the tree node it plays.
type interval struct {
	id string
	Range
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
		selected = append(selected, interval{id: id, Range: Range{Start: s, End: e}})
	}
	sort.SliceStable(selected, func(i, j int) bool { return selected[i].Start < selected[j].Start })

	plan := &Plan{Level: level, Profile: profile}
	for _, iv := range selected {
		plan.SegmentIDs = append(plan.SegmentIDs, iv.id)
		plan.Ranges = append(plan.Ranges, iv.Range)
		plan.Duration += iv.End - iv.Start
	}
	return plan, nil
}
