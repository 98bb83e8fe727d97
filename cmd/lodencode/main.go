// Command lodencode is the encoder front end (§2.5 configuration module):
// it captures a synthetic lecture from the simulated camera and microphone
// and encodes it into a stored container at the selected bandwidth profile.
//
// Usage:
//
//	lodencode -o lecture.asf -profile dsl-300k -duration 60s -slides 12
//	lodencode -profiles      # list the bandwidth profile ladder
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/encoder"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lodencode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lodencode", flag.ContinueOnError)
	out := fs.String("o", "lecture.asf", "output container path")
	profileName := fs.String("profile", "dsl-300k", "bandwidth profile")
	duration := fs.Duration("duration", 60*time.Second, "lecture duration")
	slides := fs.Int("slides", 12, "number of slides")
	annotate := fs.Duration("annotate-every", 20*time.Second, "annotation interval (0 disables)")
	title := fs.String("title", "Recorded lecture", "content title")
	live := fs.Bool("live", false, "encode as a live-style stream (live header flag, in-band scripts)")
	seed := fs.Int64("seed", 2002, "deterministic capture seed")
	listProfiles := fs.Bool("profiles", false, "list bandwidth profiles and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listProfiles {
		for _, p := range codec.Ladder() {
			fmt.Printf("%-10s %-22s %dx%d@%dfps  %4d kbps  quality %.1f dB\n",
				p.Name, p.Audience, p.Width, p.Height, p.FrameRate,
				p.TotalBitsPerSecond()/1000, p.Quality())
		}
		return nil
	}

	profile, err := codec.ByName(*profileName)
	if err != nil {
		return err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title:           *title,
		Duration:        *duration,
		Profile:         profile,
		SlideCount:      *slides,
		AnnotationEvery: *annotate,
		Seed:            *seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	stats, err := encoder.EncodeLecture(lec, encoder.Config{Live: *live, LeadTime: time.Second}, bw)
	if err != nil {
		_ = f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("encoded %s: %d packets (%d video, %d audio, %d image, %d script), %v, %d kbps\n",
		*out, stats.Packets, stats.VideoPackets, stats.AudioPackets,
		stats.ImagePackets, stats.ScriptPkts, stats.Duration, stats.BitsPerSecond()/1000)
	return nil
}
