package publish

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/player"
	"repro/internal/session"
	"repro/internal/vclock"
)

// TestRepublishWithClassAnnotations exercises the full cross-module flow
// the paper's abstract describes ("along with … all the
// annotations/comments"): a live class produces annotations through floor
// control; the recorded lecture is republished with them as its
// annotations file; replay then shows both the slide scripts and the
// class's annotations.
func TestRepublishWithClassAnnotations(t *testing.T) {
	dir := t.TempDir()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Republish test", Duration: 6 * time.Second, Profile: p,
		SlideCount: 3, Seed: 5, // no recorded annotations
	})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := WriteRawLecture(lec, dir)
	if err != nil {
		t.Fatal(err)
	}

	// A classroom session on a virtual clock yields timed annotations.
	clk := vclock.NewVirtual()
	class := session.NewClassroom("live", clk)
	if _, err := class.Join("prof", session.RoleTeacher); err != nil {
		t.Fatal(err)
	}
	if _, err := class.Join("s1", session.RoleStudent); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	clk.Advance(2 * time.Second)
	if err := class.Annotate("prof", "key definition here"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if _, err := class.Floor.Request("s1"); err != nil {
		t.Fatal(err)
	}
	if err := class.Annotate("s1", "does this hold for cycles?"); err != nil {
		t.Fatal(err)
	}

	// Write the classroom history as an annotations file, offsets relative
	// to the lecture start, and publish the lecture again with it.
	var anns []byte
	for _, ann := range class.History() {
		anns = fmt.Appendf(anns, "%s %s: %s\n", ann.At.Sub(start), ann.Author, ann.Text)
	}
	annPath := filepath.Join(dir, "class-annotations.txt")
	if err := os.WriteFile(annPath, anns, 0o644); err != nil {
		t.Fatal(err)
	}
	republished := filepath.Join(dir, "republished.asf")
	res, err := Publish(Request{
		VideoPath: paths.VideoPath, SlidesDir: paths.SlidesDir,
		AnnotationsPath: annPath, OutputPath: republished,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 slide commands + 2 class annotations.
	if res.Scripts != 5 {
		t.Fatalf("merged scripts = %d, want 5", res.Scripts)
	}

	// Replay the republished asset: both slides and annotations render.
	f, err := os.Open(republished)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := player.New(player.Options{}).Play(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.SlidesShown != 3 {
		t.Fatalf("slides = %d", m.SlidesShown)
	}
	if m.Annotations != 2 {
		t.Fatalf("annotations = %d, want 2", m.Annotations)
	}
	// The annotations appear at the classroom instants.
	var annPTS []time.Duration
	for _, e := range m.Events {
		if e.Kind == player.EventAnnotation {
			annPTS = append(annPTS, e.PTS)
		}
	}
	if len(annPTS) != 2 || annPTS[0] != 2*time.Second || annPTS[1] != 4*time.Second {
		t.Fatalf("annotation times = %v", annPTS)
	}
}
