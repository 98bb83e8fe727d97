// Abstractor: the §2.2 "flexible teaching material" in action. A student
// with limited time first watches the level-1 summary of a published
// lecture, then uses interactive controls (seek, driven by the content
// tree) to jump into the full level-2 material for one section.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/player"
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

	// Encode the full lecture once.
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
		return err
	}
	header, packets, _, err := asf.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}

	// The student plays the summary: watch the first 10 s of each level-1
	// section by seeking section-to-section. Section heads are the level-1
	// extraction of the tree.
	fmt.Println("\nsummary viewing session (10 s per section):")
	var controls []player.Control
	wall := 10 * time.Second
	for _, node := range tree.ExtractLevel(1)[1:] { // skip the intro (plays from 0)
		slide, ok := lec.SlideAt(slideTime(lec, node.ID))
		if !ok {
			continue
		}
		controls = append(controls, player.Control{
			Kind: player.CtlSeek, At: wall, Target: slide.At,
		})
		wall += 10 * time.Second
	}
	res, err := player.RunSession(header, packets, controls)
	if err != nil {
		return err
	}
	fmt.Printf("  %d seeks, %d events presented, session ended at wall %v (full lecture is %v)\n",
		res.Seeks, len(res.Events), res.EndedAt, lec.Duration)
	for _, f := range res.SlideFlips {
		fmt.Printf("  wall %-6v slide@%v\n", f.Wall, f.PTS)
	}

	// Then a deep dive: replay one section in full, pausing to take notes.
	fmt.Println("\ndeep-dive session on section 2 with a note-taking pause:")
	deep, err := player.RunSession(header, packets, []player.Control{
		{Kind: player.CtlSeek, At: 0, Target: 20 * time.Second},
		{Kind: player.CtlPause, At: 8 * time.Second},
		{Kind: player.CtlResume, At: 12 * time.Second},
	})
	if err != nil {
		return err
	}
	fmt.Printf("  paused %v, %d events, wall timeline ordered: %v\n",
		deep.TotalPaused, len(deep.Events), deep.EventsInWallOrder())
	return nil
}

// slideTime finds the display time of the slide backing a tree node.
func slideTime(lec *capture.Lecture, nodeID string) time.Duration {
	for _, s := range lec.Slides {
		if s.Name == nodeID {
			return s.At
		}
	}
	return 0
}
