package player

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/encoder"
	"repro/internal/media"
)

// sessionAsset builds a small stored asset and returns its header and
// packets.
func sessionAsset(t *testing.T) (asf.Header, []asf.Packet) {
	t.Helper()
	data, _ := testLectureBytes(t, 10*time.Second, encoder.Config{})
	h, pkts, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return h, pkts
}

func TestSessionNoControlsIsIdentity(t *testing.T) {
	h, pkts := sessionAsset(t)
	res, err := RunSession(h, pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != len(pkts) {
		t.Fatalf("presented %d events, want %d", len(res.Events), len(pkts))
	}
	for _, e := range res.Events {
		if e.Wall != e.PTS {
			t.Fatalf("no-control session shifted %v to wall %v", e.PTS, e.Wall)
		}
	}
	if !res.EventsInWallOrder() {
		t.Fatal("events out of wall order")
	}
	if res.TotalPaused != 0 || res.Seeks != 0 {
		t.Fatalf("spurious control accounting: %+v", res)
	}
}

func TestSessionPauseShiftsTail(t *testing.T) {
	h, pkts := sessionAsset(t)
	res, err := RunSession(h, pkts, []Control{
		{Kind: CtlPause, At: 4 * time.Second},
		{Kind: CtlResume, At: 7 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPaused != 3*time.Second {
		t.Fatalf("TotalPaused = %v", res.TotalPaused)
	}
	for _, e := range res.Events {
		if e.PTS < 4*time.Second {
			if e.Wall != e.PTS {
				t.Fatalf("pre-pause event shifted: pts %v wall %v", e.PTS, e.Wall)
			}
		} else if e.Wall != e.PTS+3*time.Second {
			t.Fatalf("post-pause event pts %v at wall %v, want %v", e.PTS, e.Wall, e.PTS+3*time.Second)
		}
	}
	if !res.EventsInWallOrder() {
		t.Fatal("events out of wall order")
	}
}

func TestSessionSlideFlipsShiftWithPause(t *testing.T) {
	h, pkts := sessionAsset(t)
	// Slides at 0s, 3.33s, 6.67s (10s/3 slides). Pause at 5s for 2s.
	res, err := RunSession(h, pkts, []Control{
		{Kind: CtlPause, At: 5 * time.Second},
		{Kind: CtlResume, At: 7 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlideFlips) == 0 {
		t.Fatal("no slide flips")
	}
	for _, f := range res.SlideFlips {
		want := f.PTS
		if f.PTS >= 5*time.Second {
			want += 2 * time.Second
		}
		if f.Wall != want {
			t.Fatalf("flip pts %v at wall %v, want %v", f.PTS, f.Wall, want)
		}
	}
}

func TestSessionEndsPaused(t *testing.T) {
	h, pkts := sessionAsset(t)
	res, err := RunSession(h, pkts, []Control{
		{Kind: CtlPause, At: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Events {
		if e.PTS >= 2*time.Second {
			t.Fatalf("event pts %v presented after final pause", e.PTS)
		}
	}
}

func TestSessionSeekForwardSkips(t *testing.T) {
	h, pkts := sessionAsset(t)
	// At wall 2s, seek to 8s: media 2s..8s is skipped (modulo keyframe
	// snap-back).
	res, err := RunSession(h, pkts, []Control{
		{Kind: CtlSeek, At: 2 * time.Second, Target: 8 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeks != 1 {
		t.Fatalf("Seeks = %d", res.Seeks)
	}
	// The seek snaps to the last keyframe ≤ 8 s; everything from the snap
	// point on plays exactly once, shifted earlier.
	var snap time.Duration = -1
	for _, e := range res.Events {
		if e.Wall >= 2*time.Second && (snap == -1 || e.PTS < snap) {
			snap = e.PTS
		}
	}
	if snap > 8*time.Second {
		t.Fatalf("seek snapped forward past the target: %v", snap)
	}
	for _, e := range res.Events {
		if e.Wall < 2*time.Second {
			continue
		}
		if want := 2*time.Second + (e.PTS - snap); e.Wall != want {
			t.Fatalf("post-seek pts %v at wall %v, want %v", e.PTS, e.Wall, want)
		}
	}
}

func TestSessionSeekBackwardReplays(t *testing.T) {
	h, pkts := sessionAsset(t)
	res, err := RunSession(h, pkts, []Control{
		{Kind: CtlSeek, At: 6 * time.Second, Target: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Media [0,6s) plays twice: once before the seek, once after.
	count := 0
	for _, e := range res.Events {
		if e.Kind == media.KindVideo && e.PTS == 0 {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("first frame presented %d times, want 2 (replay)", count)
	}
	if !res.EventsInWallOrder() {
		t.Fatal("events out of wall order")
	}
}

func TestSessionSeekWhilePaused(t *testing.T) {
	h, pkts := sessionAsset(t)
	res, err := RunSession(h, pkts, []Control{
		{Kind: CtlPause, At: 3 * time.Second},
		{Kind: CtlSeek, At: 4 * time.Second, Target: 0},
		{Kind: CtlResume, At: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	// After resume at wall 5 s the session replays from media 0.
	found := false
	for _, e := range res.Events {
		if e.PTS == 0 && e.Wall == 5*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatal("paused seek did not take effect at resume")
	}
}

func TestSessionControlValidation(t *testing.T) {
	h, pkts := sessionAsset(t)
	bad := [][]Control{
		{{Kind: CtlPause, At: 1 * time.Second}, {Kind: CtlPause, At: 2 * time.Second}},
		{{Kind: CtlResume, At: 1 * time.Second}},
		{{Kind: CtlPause, At: -time.Second}},
		{{Kind: CtlSeek, At: time.Second, Target: -time.Second}},
		{{Kind: ControlKind(99), At: time.Second}},
	}
	for i, ctls := range bad {
		if _, err := RunSession(h, pkts, ctls); !errors.Is(err, ErrBadControl) {
			t.Errorf("bad control set %d: err = %v, want ErrBadControl", i, err)
		}
	}
}

func TestControlKindString(t *testing.T) {
	if CtlPause.String() != "pause" || CtlSeek.String() != "seek" {
		t.Fatal("control names wrong")
	}
	if got := ControlKind(42).String(); got != "control(42)" {
		t.Fatalf("unknown control = %q", got)
	}
}
