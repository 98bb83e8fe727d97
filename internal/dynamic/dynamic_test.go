package dynamic

import (
	"errors"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/contenttree"
	"repro/internal/publish"
)

// fixture builds a 60 s, 9-slide lecture with its content tree.
type fixture struct {
	lec  *capture.Lecture
	tree *contenttree.Tree
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Dynamic lecture", Duration: 60 * time.Second, Profile: p,
		SlideCount: 9, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := publish.BuildContentTree(lec.Title, lec.Slides, lec.Duration, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{lec: lec, tree: tree}
}

// slideRange is the media interval of the slide backing a tree node: the
// root plays the first slide's interval.
func (fx *fixture) slideRange(t *testing.T, id string) Range {
	t.Helper()
	if id == fx.tree.Root().ID {
		id = fx.lec.Slides[0].Name
	}
	for i, s := range fx.lec.Slides {
		if s.Name != id {
			continue
		}
		end := fx.lec.Duration
		if i+1 < len(fx.lec.Slides) {
			end = fx.lec.Slides[i+1].At
		}
		return Range{Start: s.At, End: end}
	}
	t.Fatalf("no slide backs tree node %q", id)
	return Range{}
}

func TestPlanUnconstrainedWatchesEverything(t *testing.T) {
	fx := newFixture(t)
	plan, err := PlanFor(fx.tree, fx.lec.Slides, fx.lec.Duration, Audience{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Level != fx.tree.HighestLevel() {
		t.Fatalf("level = %d, want %d", plan.Level, fx.tree.HighestLevel())
	}
	if plan.Duration != fx.lec.Duration {
		t.Fatalf("duration = %v, want %v", plan.Duration, fx.lec.Duration)
	}
	// The ranges tile the whole asset.
	var at time.Duration
	for _, r := range plan.Ranges {
		if r.Start != at {
			t.Fatalf("ranges %v leave a gap at %v", plan.Ranges, at)
		}
		at = r.End
	}
	if at != fx.lec.Duration {
		t.Fatalf("ranges %v end at %v, want %v", plan.Ranges, at, fx.lec.Duration)
	}
}

func TestPlanTimeBudgetPicksLevel(t *testing.T) {
	fx := newFixture(t)
	lv := fx.tree.LevelNodes()
	// Budget exactly the level-1 time: plan must pick level 1.
	plan, err := PlanFor(fx.tree, fx.lec.Slides, fx.lec.Duration, Audience{AvailableTime: lv[1]})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Level != 1 {
		t.Fatalf("level = %d, want 1 (budget %v)", plan.Level, lv[1])
	}
	if plan.Duration != lv[1] {
		t.Fatalf("plan duration %v, want %v", plan.Duration, lv[1])
	}
	// A budget below the summary is unsatisfiable.
	if _, err := PlanFor(fx.tree, fx.lec.Slides, fx.lec.Duration, Audience{AvailableTime: time.Second}); !errors.Is(err, ErrNoFit) {
		t.Fatalf("tiny budget err = %v, want ErrNoFit", err)
	}
}

func TestPlanBandwidthPicksProfile(t *testing.T) {
	fx := newFixture(t)
	plan, err := PlanFor(fx.tree, fx.lec.Slides, fx.lec.Duration, Audience{BandwidthBps: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Profile.Name != "modem-56k" {
		t.Fatalf("profile = %s, want modem-56k", plan.Profile.Name)
	}
	rich, err := PlanFor(fx.tree, fx.lec.Slides, fx.lec.Duration, Audience{BandwidthBps: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if rich.Profile.TotalBitsPerSecond() <= plan.Profile.TotalBitsPerSecond() {
		t.Fatal("richer link did not get a richer profile")
	}
}

func TestPlanReplayPlaysExactlySelectedIntervals(t *testing.T) {
	fx := newFixture(t)
	lv := fx.tree.LevelNodes()
	plan, err := PlanFor(fx.tree, fx.lec.Slides, fx.lec.Duration, Audience{AvailableTime: lv[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ranges) != len(plan.SegmentIDs) {
		t.Fatalf("%d ranges for %d segments", len(plan.Ranges), len(plan.SegmentIDs))
	}
	var sum time.Duration
	for i, r := range plan.Ranges {
		if want := fx.slideRange(t, plan.SegmentIDs[i]); r != want {
			t.Fatalf("range %d = %v, want segment %q's interval %v", i, r, plan.SegmentIDs[i], want)
		}
		if r.End <= r.Start {
			t.Fatalf("range %d = %v is empty", i, r)
		}
		if i > 0 && r.Start < plan.Ranges[i-1].End {
			t.Fatalf("range %d = %v overlaps or precedes %v", i, r, plan.Ranges[i-1])
		}
		sum += r.End - r.Start
	}
	if sum != plan.Duration {
		t.Fatalf("ranges sum to %v, plan duration %v", sum, plan.Duration)
	}
	// The summary skips material: the ranges leave gaps in the asset.
	if plan.Duration >= fx.lec.Duration {
		t.Fatalf("level-1 plan runs %v of a %v lecture", plan.Duration, fx.lec.Duration)
	}
}

func TestPlanErrorsOnEmptyTree(t *testing.T) {
	if _, err := PlanFor(contenttree.New(), nil, time.Second, Audience{}); err == nil {
		t.Fatal("empty tree accepted")
	}
}
