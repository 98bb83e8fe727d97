// Benchmarks of the packages behind the paper's figures, named by
// DESIGN.md's experiment index where one row has a cost worth timing
// (E7 and E11 are checked by tests only, E13 is retired; E12's fan-out is
// internal/streaming's BenchmarkChannelPublish and E15's admission its
// BenchmarkAdmit), plus the ablation benches DESIGN.md calls out. Run
// with: go test -bench=. -benchmem
package repro

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/contenttree"
	"repro/internal/dynamic"
	"repro/internal/encoder"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/ocpn"
	"repro/internal/petri"
	"repro/internal/player"
	"repro/internal/publish"
	"repro/internal/relay"
	"repro/internal/session"
	"repro/internal/streaming"
	"repro/internal/vclock"
)

func mustProfile(b *testing.B, name string) codec.Profile {
	b.Helper()
	p, err := codec.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func benchLecture(b *testing.B, profileName string, dur time.Duration, slides int) *capture.Lecture {
	b.Helper()
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "bench", Duration: dur, Profile: mustProfile(b, profileName),
		SlideCount: slides, AnnotationEvery: dur / 3, Seed: 2002,
	})
	if err != nil {
		b.Fatal(err)
	}
	return lec
}

// BenchmarkE1ContentTree regenerates Fig 1/2: building and validating the
// paper's multiple-level content tree.
func BenchmarkE1ContentTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tree := contenttree.New()
		steps := []struct {
			id    string
			level int
		}{{"S0", 0}, {"S1", 1}, {"S2", 2}, {"S3", 1}, {"S4", 2}}
		for _, s := range steps {
			if err := tree.Attach(s.id, 20*time.Second, s.level); err != nil {
				b.Fatal(err)
			}
		}
		if err := tree.Validate(); err != nil {
			b.Fatal(err)
		}
		if tree.PresentationTime(2) != 100*time.Second {
			b.Fatal("paper value mismatch")
		}
	}
}

// BenchmarkE2E3E4TreeOps measures the §2.3/Fig 3/Fig 4 operations at a
// realistic tree size.
func BenchmarkE2E3E4TreeOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tree := contenttree.New()
		if err := tree.Attach("root", time.Second, 0); err != nil {
			b.Fatal(err)
		}
		for j := 1; j <= 100; j++ {
			level := 1 + (j+1)%2 // alternate 1,2,1,2,… starting at level 1
			if err := tree.Attach(fmt.Sprintf("n%d", j), time.Second, level); err != nil {
				b.Fatal(err)
			}
		}
		if err := tree.Insert("ins", time.Second, "n50"); err != nil {
			b.Fatal(err)
		}
		// n50 is now a leaf child of "ins": delete it (Fig 4 operation).
		if err := tree.Delete("n50"); err != nil {
			b.Fatal(err)
		}
		_ = tree.LevelNodes()
	}
}

// BenchmarkE5Publish regenerates Fig 5: the full publish workflow (raw
// recording on disk → synchronized container).
func BenchmarkE5Publish(b *testing.B) {
	lec := benchLecture(b, "modem-56k", 10*time.Second, 4)
	dir := b.TempDir()
	paths, err := publish.WriteRawLecture(lec, dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fmt.Sprintf("%s/out%d.asf", dir, i)
		if _, err := publish.Publish(publish.Request{
			VideoPath: paths.VideoPath, SlidesDir: paths.SlidesDir, OutputPath: out,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6ContentTreeBuild regenerates Fig 6: content tree construction
// from a published slide deck.
func BenchmarkE6ContentTreeBuild(b *testing.B) {
	lec := benchLecture(b, "modem-56k", 60*time.Second, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := publish.BuildContentTree(lec.Title, lec.Slides, lec.Duration, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Profiles regenerates the profile ladder table: encoding cost
// and output size per bandwidth profile.
func BenchmarkE8Profiles(b *testing.B) {
	for _, p := range codec.Ladder() {
		b.Run(p.Name, func(b *testing.B) {
			var bytesOut int64
			for i := 0; i < b.N; i++ {
				lec, err := capture.NewLecture(capture.LectureConfig{
					Title: "bench", Duration: 5 * time.Second, Profile: p,
					SlideCount: 2, Seed: 2002,
				})
				if err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
					b.Fatal(err)
				}
				bytesOut = int64(buf.Len())
			}
			b.ReportMetric(float64(bytesOut)/1024, "KiB-out")
			b.ReportMetric(p.Quality(), "quality-dB")
		})
	}
}

// BenchmarkE9Models regenerates the model comparison: building and
// simulating each synchronization model under the interaction scenario.
func BenchmarkE9Models(b *testing.B) {
	lec := benchLecture(b, "modem-56k", 60*time.Second, 6)
	pres := lec.ToPresentation()
	sc := ocpn.Scenario{
		Interactions: []ocpn.Interaction{
			{Kind: ocpn.Pause, At: 15 * time.Second},
			{Kind: ocpn.Resume, At: 25 * time.Second},
		},
		Arrivals: []ocpn.Arrival{{SegmentID: "video03", At: 24 * time.Second}},
	}
	for _, kind := range []ocpn.ModelKind{ocpn.OCPN, ocpn.XOCPN, ocpn.Extended} {
		b.Run(kind.String(), func(b *testing.B) {
			var mis int
			for i := 0; i < b.N; i++ {
				model, err := ocpn.Build(kind, pres)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := model.Simulate(sc)
				if err != nil {
					b.Fatal(err)
				}
				mis = rep.MisScheduled
			}
			b.ReportMetric(float64(mis), "mis-scheduled")
		})
	}
}

// BenchmarkE10Floor regenerates the floor-control experiment: full
// request/grant/release rotations across contending users.
func BenchmarkE10Floor(b *testing.B) {
	for _, users := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clk := vclock.NewVirtual()
				floor := session.NewFloor(clk)
				for u := 0; u < users; u++ {
					if _, err := floor.Request(fmt.Sprintf("u%d", u)); err != nil {
						b.Fatal(err)
					}
				}
				for u := 0; u < users; u++ {
					clk.Advance(time.Second)
					if err := floor.Release(floor.Holder()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationJitterBuffer compares player jitter-buffer depths on
// the same stream (DESIGN.md ablation #1).
func BenchmarkAblationJitterBuffer(b *testing.B) {
	lec := benchLecture(b, "modem-56k", 10*time.Second, 4)
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, depth := range []int{0, 1, 32, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl := player.New(player.Options{JitterBufferDepth: depth})
				if _, err := pl.Play(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPacing compares send-time pacing against
// as-fast-as-possible transmission through a bandwidth-limited link
// (DESIGN.md ablation #2). The measured effect is sender-queue build-up:
// paced transmission keeps each packet's queueing delay bounded by the
// burstiness of one send instant, while ASAP transmission queues the whole
// file, so the tail packet waits for the entire serialization.
func BenchmarkAblationPacing(b *testing.B) {
	lec := benchLecture(b, "modem-56k", 10*time.Second, 4)
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{LeadTime: time.Second}, &buf); err != nil {
		b.Fatal(err)
	}
	packets := decodePackets(b, buf.Bytes())

	run := func(b *testing.B, paced bool) {
		var worst time.Duration
		for i := 0; i < b.N; i++ {
			// A link with ~2.5× headroom over the stream rate: pacing keeps
			// the queue empty, ASAP transmission serializes the whole file
			// up front and the tail arrives late.
			link := netsim.Link{BitsPerSecond: 128_000, Latency: 30 * time.Millisecond, Seed: 1}
			link.Reset()
			worst = 0
			for _, p := range packets {
				sendAt := p.SendAt
				if !paced {
					sendAt = 0
				}
				d := link.Transmit(sendAt, len(p.Payload))
				if d.Lost {
					continue
				}
				// Queueing delay: how long the packet waited behind
				// earlier traffic before its own serialization began.
				if q := d.DepartedAt - d.SentAt; q > worst {
					worst = q
				}
			}
		}
		b.ReportMetric(float64(worst.Microseconds())/1000, "max-queue-ms")
	}
	b.Run("paced", func(b *testing.B) { run(b, true) })
	b.Run("unpaced", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationScriptPlacement compares header-table scripts against
// in-band script packets (DESIGN.md ablation #3).
func BenchmarkAblationScriptPlacement(b *testing.B) {
	lec := benchLecture(b, "modem-56k", 10*time.Second, 4)
	var stored, live bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{}, &stored); err != nil {
		b.Fatal(err)
	}
	if _, err := encoder.EncodeLecture(lec, encoder.Config{Live: true}, &live); err != nil {
		b.Fatal(err)
	}
	cases := map[string][]byte{"header": stored.Bytes(), "inband": live.Bytes()}
	for name, data := range cases {
		b.Run(name, func(b *testing.B) {
			var slides int
			for i := 0; i < b.N; i++ {
				m, err := player.New(player.Options{}).Play(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				slides = m.SlidesShown
			}
			b.ReportMetric(float64(slides), "slides")
		})
	}
}

// BenchmarkPetriFire measures raw Petri-net firing throughput, the engine
// under every synchronization model.
func BenchmarkPetriFire(b *testing.B) {
	n := petri.NewNet("bench")
	if err := n.AddPlace(petri.Place{ID: "p1"}); err != nil {
		b.Fatal(err)
	}
	if err := n.AddPlace(petri.Place{ID: "p2"}); err != nil {
		b.Fatal(err)
	}
	if err := n.AddTransition(petri.Transition{ID: "t12"}); err != nil {
		b.Fatal(err)
	}
	if err := n.AddTransition(petri.Transition{ID: "t21"}); err != nil {
		b.Fatal(err)
	}
	if err := n.AddInput("p1", "t12", 1); err != nil {
		b.Fatal(err)
	}
	if err := n.AddOutput("t12", "p2", 1); err != nil {
		b.Fatal(err)
	}
	if err := n.AddInput("p2", "t21", 1); err != nil {
		b.Fatal(err)
	}
	if err := n.AddOutput("t21", "p1", 1); err != nil {
		b.Fatal(err)
	}
	m := petri.Marking{"p1": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := n.Fire(m, "t12")
		if err != nil {
			b.Fatal(err)
		}
		m, err = n.Fire(next, "t21")
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkASFRoundTrip measures container encode+decode throughput.
func BenchmarkASFRoundTrip(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAB}, 1400)
	pkt := asf.Packet{
		Stream: 1, Kind: 1, Flags: asf.PacketKeyframe,
		PTS: time.Second, Dur: 40 * time.Millisecond, SendAt: time.Second,
		Payload: payload,
	}
	data, err := asf.EncodePacket(pkt)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asf.EncodePacket(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func decodePackets(b *testing.B, data []byte) []asf.Packet {
	b.Helper()
	_, pkts, _, err := asf.ReadAll(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	return pkts
}

// BenchmarkRelayFanOut measures the edge tier's fan-out throughput: one
// origin channel feeding an edge's relay, the edge serving N viewers
// through its /v1/live/ handler, all over one netsim.MemNet. Each viewer
// is a cursor on the edge channel's log, as in a deployment, so a viewer
// the log passes under burst load is counted in edge-drop-frac. The
// origin's publisher runs at most relayWindow packets ahead of what the
// edge has relayed, so the origin's log never passes the relay and
// relayed-frac reads 1: ns/op times the relay and the fan-out, not the
// origin's publish.
func BenchmarkRelayFanOut(b *testing.B) {
	// Under the 128 packets a channel's log keeps behind its latest
	// packet, so the relay's cursor on the origin is never passed.
	const relayWindow = 64
	lec := benchLecture(b, "modem-56k", 5*time.Second, 2)
	var buf bytes.Buffer
	if _, err := encoder.EncodeLecture(lec, encoder.Config{Live: true}, &buf); err != nil {
		b.Fatal(err)
	}
	h, packets, _, err := asf.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			mem := netsim.NewMemNet()
			defer mem.Close()
			serve := func(host string, h http.Handler) {
				l, err := mem.Listen(host)
				if err != nil {
					b.Fatal(err)
				}
				srv := &http.Server{Handler: h}
				go func() { _ = srv.Serve(l) }()
				b.Cleanup(func() { srv.Close() })
			}
			origin := streaming.NewServer(nil)
			originCh, err := origin.CreateChannel("bench", h)
			if err != nil {
				b.Fatal(err)
			}
			serve("origin.lod", origin.Handler())
			edge := relay.NewEdge("http://origin.lod", streaming.NewServer(nil))
			edge.Client = mem.Client()
			serve("edge.lod", edge.Handler())
			if err := edge.RelayChannel("bench"); err != nil {
				b.Fatal(err)
			}
			edgeCh, ok := edge.Server.Channel("bench")
			if !ok {
				b.Fatal("relayed channel missing")
			}
			viewer := mem.Client()
			var viewers sync.WaitGroup
			for i := 0; i < clients; i++ {
				resp, err := viewer.Get("http://edge.lod/v1/live/bench")
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("viewer join: %s", resp.Status)
				}
				viewers.Add(1)
				go func() {
					defer viewers.Done()
					defer resp.Body.Close()
					_, _ = io.Copy(io.Discard, resp.Body)
				}()
			}
			b.SetBytes(int64(len(packets[0].Payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Wait for credit, sleeping so as not to take the CPU the
				// relay needs; a relay that stops fails the benchmark.
				var deadline time.Time
				for int64(i)-edgeCh.Published() >= relayWindow {
					if deadline.IsZero() {
						deadline = time.Now().Add(30 * time.Second)
					}
					if edgeCh.Closed() || !time.Now().Before(deadline) {
						b.Fatalf("relay stopped after %d of %d packets", edgeCh.Published(), i)
					}
					time.Sleep(10 * time.Microsecond)
				}
				if err := originCh.Publish(packets[i%len(packets)]); err != nil {
					b.Fatal(err)
				}
			}
			// Wait for the relay pipe to drain; origin-side drops (the
			// edge's relay falling behind) never reach the edge.
			deadline := time.Now().Add(30 * time.Second)
			for edgeCh.Published()+originCh.Dropped() < int64(b.N) {
				if !time.Now().Before(deadline) {
					b.Fatalf("relay drained %d of %d packets", edgeCh.Published(), b.N)
				}
				time.Sleep(100 * time.Microsecond)
			}
			b.StopTimer()
			relayed := edgeCh.Published()
			b.ReportMetric(float64(relayed)/float64(b.N), "relayed-frac")
			// The share of the packets each viewer should have read that
			// the log passed under it, over all viewers.
			b.ReportMetric(float64(edgeCh.Dropped())/float64(int64(clients)*relayed), "edge-drop-frac")
			originCh.Close() // the relay ends, and with it every viewer's body
			viewers.Wait()
		})
	}
}

// BenchmarkE14Compose measures Allen-relation constraint solving.
func BenchmarkE14Compose(b *testing.B) {
	s := time.Second
	segs := []media.Segment{
		{ID: "video", Kind: media.KindVideo, Duration: 30 * s},
		{ID: "audio", Kind: media.KindAudio, Duration: 30 * s},
		{ID: "slide1", Kind: media.KindImage, Duration: 10 * s},
		{ID: "slide2", Kind: media.KindImage, Duration: 10 * s},
		{ID: "slide3", Kind: media.KindImage, Duration: 10 * s},
	}
	constraints := []ocpn.Constraint{
		{Rel: ocpn.RelEquals, A: "video", B: "audio"},
		{Rel: ocpn.RelStarts, A: "slide1", B: "video"},
		{Rel: ocpn.RelMeets, A: "slide1", B: "slide2"},
		{Rel: ocpn.RelMeets, A: "slide2", B: "slide3"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocpn.Compose("bench", segs, constraints); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16Plan measures per-audience presentation planning.
func BenchmarkE16Plan(b *testing.B) {
	lec := benchLecture(b, "dsl-300k", 60*time.Second, 9)
	tree, err := publish.BuildContentTree(lec.Title, lec.Slides, lec.Duration, 0)
	if err != nil {
		b.Fatal(err)
	}
	aud := dynamic.Audience{AvailableTime: 30 * time.Second, BandwidthBps: 768_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamic.PlanFor(tree, lec.Slides, lec.Duration, aud); err != nil {
			b.Fatal(err)
		}
	}
}
