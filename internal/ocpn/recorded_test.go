package ocpn

import (
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
)

// TestRecordedLectureModelOrdering is E9 on a recorded lecture rather
// than a hand-built presentation: a 60 s, 6-slide capture played with a
// pause, a skipped slide and a late video segment. The extended net
// keeps every segment on the intended schedule; XOCPN, which has no
// interaction places, does not, and OCPN, which also ignores arrival
// times, misses at least as many.
func TestRecordedLectureModelOrdering(t *testing.T) {
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "E9 lecture", Duration: 60 * time.Second, Profile: p, SlideCount: 6, Seed: 2002,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{
		Interactions: []Interaction{
			{Kind: Pause, At: 15 * time.Second},
			{Kind: Resume, At: 25 * time.Second},
			{Kind: Skip, At: 5 * time.Second, SegmentID: "video05"},
			{Kind: Skip, At: 5 * time.Second, SegmentID: "slide05"},
		},
		Arrivals: []Arrival{{SegmentID: "video03", At: 24 * time.Second}},
	}
	reports, err := CompareModels(lec.ToPresentation(), sc)
	if err != nil {
		t.Fatal(err)
	}
	o, x, e := reports[OCPN].MisScheduled, reports[XOCPN].MisScheduled, reports[Extended].MisScheduled
	t.Logf("mis-scheduled of %d segments: OCPN %d, XOCPN %d, extended %d", len(reports[Extended].Segments), o, x, e)
	if e != 0 {
		t.Errorf("extended model mis-scheduled %d segments, want 0", e)
	}
	if x == 0 {
		t.Error("XOCPN kept a paused and skipped lecture on schedule")
	}
	if o < x {
		t.Errorf("OCPN mis-scheduled %d, fewer than XOCPN's %d", o, x)
	}
}
