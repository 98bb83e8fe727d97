// Abstractor: the §2.2 "flexible teaching material" in action. A student
// with limited time watches the level-1 summary of a published lecture:
// the content tree picks the sections, and dynamic.PlanFor turns them
// into the ranges of the stored lecture that play.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/dynamic"
	"repro/internal/publish"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		return err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title:      "Graph Algorithms in 60 Seconds",
		Duration:   60 * time.Second,
		Profile:    profile,
		SlideCount: 9,
		Seed:       3,
	})
	if err != nil {
		return err
	}

	// The content tree organizes the lecture into abstraction levels.
	tree, err := publish.BuildContentTree(lec.Title, lec.Slides, lec.Duration, 0)
	if err != nil {
		return err
	}
	fmt.Println("content tree of the lecture:")
	fmt.Print(tree.String())
	for q := 0; q <= tree.HighestLevel(); q++ {
		fmt.Printf("level %d presentation: %v — %v\n",
			q, tree.PresentationTime(q), tree.ExtractLevelIDs(q))
	}

	// The student has the level-1 summary's time and a modem link.
	plan, err := dynamic.PlanFor(tree, lec.Slides, lec.Duration, dynamic.Audience{
		AvailableTime: tree.PresentationTime(1),
		BandwidthBps:  profile.TotalBitsPerSecond(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nsummary plan: level %d at %s, %v of the %v lecture\n",
		plan.Level, plan.Profile.Name, plan.Duration, lec.Duration)
	for i, r := range plan.Ranges {
		fmt.Printf("  %-10s %v–%v\n", plan.SegmentIDs[i], r.Start, r.End)
	}
	return nil
}
