// Quickstart: the minimal WMPS loop — record a short lecture, publish it,
// serve it, and replay it over HTTP, printing what the student would see.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/publish"
	"repro/internal/streaming"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	workDir, err := os.MkdirTemp("", "wmps-quickstart-")
	if err != nil {
		return err
	}
	defer func() {
		_ = os.RemoveAll(workDir)
	}()

	// 1. Record: the teacher gives a 20-second lecture with 4 slides.
	profile, err := codec.ByName("dsl-300k")
	if err != nil {
		return err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title:           "Quickstart: Petri nets in 20 seconds",
		Duration:        20 * time.Second,
		Profile:         profile,
		SlideCount:      4,
		AnnotationEvery: 8 * time.Second,
		Seed:            1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("recorded %q: %d video frames, %d audio blocks, %d slides\n",
		lec.Title, len(lec.Video), len(lec.Audio), len(lec.Slides))

	// 2. Publish: synchronize the raw video and slides with script commands.
	raw, err := publish.WriteRawLecture(lec, workDir)
	if err != nil {
		return err
	}
	res, err := publish.Publish(publish.Request{
		Title:      lec.Title,
		VideoPath:  raw.VideoPath,
		SlidesDir:  raw.SlidesDir,
		OutputPath: filepath.Join(workDir, "quickstart.asf"),
	})
	if err != nil {
		return err
	}
	fmt.Printf("published %s (%d script commands)\n", res.AssetPath, res.Scripts)
	fmt.Println("content tree:")
	fmt.Print(res.Tree.String())

	// 3. Serve: the streaming server holds the published container,
	// unpaced so the replay below does not take the lecture's 20 s.
	f, err := os.Open(res.AssetPath)
	if err != nil {
		return err
	}
	server := streaming.NewServer(nil)
	server.Pacing = false
	_, err = server.RegisterAsset("quickstart", asf.NewReader(f))
	_ = f.Close()
	if err != nil {
		return err
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// 4. Replay: a student watches the lecture on demand.
	sess, err := client.New(ts.URL).Open(context.Background(), client.Spec{Kind: client.VOD, Name: "quickstart"})
	if err != nil {
		return err
	}
	m, err := sess.Play()
	if err != nil {
		return err
	}
	fmt.Printf("replayed: %d frames, %d slide flips, %d annotations\n",
		m.VideoFrames, m.SlidesShown, m.Annotations)
	for _, e := range m.SlideEvents() {
		fmt.Printf("  slide %q shown at %v\n", e.Param, e.PTS)
	}
	return nil
}
