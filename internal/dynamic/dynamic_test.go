package dynamic

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/contenttree"
	"repro/internal/encoder"
	"repro/internal/player"
	"repro/internal/publish"
)

// fixture builds a 60 s, 9-slide lecture with its content tree and encoded
// asset.
type fixture struct {
	lec     *capture.Lecture
	tree    *contenttree.Tree
	header  asf.Header
	packets []asf.Packet
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
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
		t.Fatal(err)
	}
	h, pkts, _, err := asf.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{lec: lec, tree: tree, header: h, packets: pkts}
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
	if len(plan.Controls) != 0 {
		t.Fatalf("full watch needs no controls, got %v", plan.Controls)
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
	res, err := player.RunSession(fx.header, fx.packets, plan.Controls)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EventsInWallOrder() {
		t.Fatal("replay out of wall order")
	}
	// The session ends within the plan's duration (seeks snap to
	// keyframes, which can only start intervals earlier, never extend the
	// wall timeline beyond the budget).
	if res.EndedAt > plan.Duration {
		t.Fatalf("replay ran %v, plan budget %v", res.EndedAt, plan.Duration)
	}
	// Media outside the selected intervals must not be presented. Build
	// the selected set from the plan's segment IDs.
	selected := map[string][2]time.Duration{}
	for i, s := range fx.lec.Slides {
		end := fx.lec.Duration
		if i+1 < len(fx.lec.Slides) {
			end = fx.lec.Slides[i+1].At
		}
		selected[s.Name] = [2]time.Duration{s.At, end}
	}
	inPlan := func(pts time.Duration) bool {
		for _, id := range plan.SegmentIDs {
			key := id
			if id == fx.tree.Root().ID {
				key = fx.lec.Slides[0].Name
			}
			iv := selected[key]
			if pts >= iv[0] && pts < iv[1] {
				return true
			}
		}
		return false
	}
	// A seek snaps back to the video keyframe at or before its target, so
	// it may pull in up to one GOP before an interval's start, never more.
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	gop := time.Duration(p.GOPFrames) * time.Second / time.Duration(p.FrameRate)
	late := 0
	for _, e := range res.Events {
		if inPlan(e.PTS) {
			continue
		}
		if !inPlan(e.PTS + gop) {
			t.Fatalf("event at %v is outside the plan by more than a %v GOP", e.PTS, gop)
		}
		late++
	}
	t.Logf("%d of %d presented events lie in the GOP before a selected interval", late, len(res.Events))
}

func TestPlanErrorsOnEmptyTree(t *testing.T) {
	if _, err := PlanFor(contenttree.New(), nil, time.Second, Audience{}); err == nil {
		t.Fatal("empty tree accepted")
	}
}
