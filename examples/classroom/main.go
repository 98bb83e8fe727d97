// Classroom: the distributed distance-learning scenario of the paper's
// abstract — a teacher broadcasts a live lecture over HTTP; many students
// who "cannot attend the presentation" join the channel (including one on
// a degraded network), contend for the floor, and exchange annotations.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/encoder"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/session"
	"repro/internal/streaming"
)

const studentCount = 8

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// --- The live lecture, encoded for modem-class students. ---
	profile, err := codec.ByName("modem-56k")
	if err != nil {
		return err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title:           "Live: Implementing Distributed LOD Systems",
		Duration:        10 * time.Second,
		Profile:         profile,
		SlideCount:      5,
		AnnotationEvery: 4 * time.Second,
		Seed:            7,
	})
	if err != nil {
		return err
	}
	var encoded bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{Live: true}, &encoded); err != nil {
		return err
	}
	packets, header, err := decodeAll(encoded.Bytes())
	if err != nil {
		return err
	}

	// --- The streaming server with one live channel. ---
	server := streaming.NewServer(nil)
	channel, err := server.CreateChannel("lecture-hall", header)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	fmt.Printf("server up at %s, broadcasting %q\n", ts.URL, lec.Title)

	// --- Students join over HTTP; their players run concurrently. The
	// last one sits behind a lossy WiFi link and plays in realtime with a
	// 32-packet jitter buffer, on a clock of its own. ---
	var wg sync.WaitGroup
	results := make([]*player.Metrics, studentCount+1)
	errs := make([]error, studentCount+1)
	studentClock := &skipClock{}
	for i := range results {
		spec := client.Spec{Kind: client.Live, Name: "lecture-hall"}
		if i == studentCount {
			spec.Player = player.Options{Clock: studentClock, Realtime: true,
				AnchorToFirstPacket: true, JitterBufferDepth: 32}
			spec.WrapBody = func(r io.Reader) io.Reader {
				return netsim.NewLinkReader(r, netsim.LinkLossyWiFi.Clone(7), studentClock)
			}
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id], errs[id] = joinLive(ctx, ts.URL, spec)
		}(i)
	}

	// Wait for everyone to attach, then broadcast every packet at once (a
	// real deployment would use channel.PublishPaced with the wall clock).
	for channel.ClientCount() < len(results) {
		time.Sleep(time.Millisecond)
	}
	if err := channel.PublishPaced(ctx, &skipClock{}, packets); err != nil {
		return err
	}
	channel.Close()
	wg.Wait()

	delivered := 0
	for i, m := range results[:studentCount] {
		if errs[i] != nil {
			return fmt.Errorf("student %d: %w", i, errs[i])
		}
		if m.SlidesShown == len(lec.Slides) {
			delivered++
		}
	}
	fmt.Printf("%d/%d students received every slide flip in the live stream\n",
		delivered, studentCount)

	degraded := results[studentCount]
	if errs[studentCount] != nil {
		return fmt.Errorf("degraded student: %w", errs[studentCount])
	}
	fmt.Printf("degraded-network student: %d stalls, max skew %v, %d of %d frames broken\n",
		degraded.Stalls, degraded.MaxSkew.Truncate(time.Millisecond), degraded.BrokenFrames, degraded.VideoFrames)

	// --- Floor control: students ask questions during the lecture. ---
	class := session.NewClassroom("lecture-hall", nil)
	if _, err := class.Join("teacher", session.RoleTeacher); err != nil {
		return err
	}
	students := make([]*session.Attendee, studentCount)
	for i := range students {
		a, err := class.Join(fmt.Sprintf("student%02d", i), session.RoleStudent)
		if err != nil {
			return err
		}
		students[i] = a
	}
	if err := class.Annotate("teacher", "welcome to the live session"); err != nil {
		return err
	}
	// Three students raise their hands; the floor rotates FIFO.
	for _, s := range []string{"student03", "student01", "student05"} {
		if _, err := class.Floor.Request(s); err != nil {
			return err
		}
	}
	for class.Floor.Holder() != "" {
		holder := class.Floor.Holder()
		if err := class.Annotate(holder, "question from "+holder); err != nil {
			return err
		}
		if err := class.Floor.Release(holder); err != nil {
			return err
		}
	}
	if err := class.Floor.VerifyAgainstModel(); err != nil {
		return fmt.Errorf("floor trace deviates from the Petri-net model: %w", err)
	}
	fmt.Printf("floor control: %d annotations broadcast, trace verified against the Petri-net model\n",
		len(class.History()))
	class.Close()
	return nil
}

// joinLive plays a live channel from the server at base through the
// session SDK, as a student's player would.
func joinLive(ctx context.Context, base string, spec client.Spec) (*player.Metrics, error) {
	sess, err := client.New(base).Open(ctx, spec)
	if err != nil {
		return nil, err
	}
	return sess.Play()
}

// decodeAll splits an encoded container into header + packets.
func decodeAll(data []byte) ([]asf.Packet, asf.Header, error) {
	h, pkts, _, err := asf.ReadAll(bytes.NewReader(data))
	return pkts, h, err
}
