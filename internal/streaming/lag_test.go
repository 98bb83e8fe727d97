package streaming

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/proto"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// TestSlowViewerLosesWholeGOPs plays a dsl-300k broadcast to a student
// behind a 56 kbps modem, a link slower than the stream: the viewer falls
// behind until the log passes it, again and again. Each time it jumps to
// a seek point, so its body has gaps only before seek points
// (check.LiveBody) and its decoder breaks no frame; a viewer that lost
// single packets mid-GOP would break every frame up to the next keyframe.
func TestSlowViewerLosesWholeGOPs(t *testing.T) {
	p, err := codec.ByName("dsl-300k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := lectureForProfile(t, p, 60*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	h, packets, _, err := asf.ReadAll(bytes.NewReader(lec))
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	srv := NewServer(clk)
	ch, err := srv.CreateChannel("slow", h)
	if err != nil {
		t.Fatal(err)
	}
	client := serveOnMem(t, srv.Handler()).Client()
	resp, err := client.Get("http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamLive, "slow")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() == 1 }, "the viewer never attached")

	var body bytes.Buffer
	read := make(chan error, 1)
	go func() {
		_, err := io.Copy(&body, netsim.NewLinkReader(resp.Body, netsim.LinkModem56k.Clone(1), clk))
		read <- err
	}()
	go func() {
		_ = ch.PublishPaced(context.Background(), clk, packets)
		ch.Close()
	}()
	deadline := time.Now().Add(60 * time.Second)
	for done := false; !done; {
		select {
		case err := <-read:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("the broadcast never reached its end at the viewer")
			}
			if clk.PendingWaiters() > 0 {
				clk.Advance(20 * time.Millisecond)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}

	if ch.Resyncs() == 0 {
		t.Fatalf("the log never passed the viewer (%d bytes read of a %d-byte broadcast)", body.Len(), len(lec))
	}
	if err := check.LiveBody(ch.wireHeader, bytes.NewReader(body.Bytes())); err != nil {
		t.Fatal(err)
	}
	m, err := player.New(player.Options{}).Play(bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m.BrokenFrames != 0 || m.VideoFrames == 0 {
		t.Fatalf("the slow viewer decoded %d video frames, %d broken; want 0 broken", m.VideoFrames, m.BrokenFrames)
	}
	t.Logf("%d of %d packets dropped in %d resyncs; %d video frames, 0 broken",
		ch.Dropped(), len(packets), ch.Resyncs(), m.VideoFrames)
}

// stallReader is a viewer that stops reading now and then: before a Read,
// with probability 1 in every, it sleeps up to max.
type stallReader struct {
	r     io.Reader
	rng   *rand.Rand
	every int
	max   time.Duration
}

func (s *stallReader) Read(p []byte) (int, error) {
	if s.rng.Intn(s.every) == 0 {
		time.Sleep(time.Duration(s.rng.Int63n(int64(s.max))))
	}
	return s.r.Read(p)
}

// churnViewer is one viewer of TestLiveReuseUnderChurn: it joins before
// packet join is published, reads through stalls and, when leave is
// positive, leaves after that many bytes.
type churnViewer struct {
	join  int
	leave int64
	reads *stallReader
}

// watch joins the broadcast at url, says so on joined, reads the body
// as v does, and checks it: the live invariant (check.LiveBody) and each
// packet's payload against what was published under its sequence number.
func (v churnViewer) watch(client *http.Client, url string, header []byte, joined chan<- struct{}) error {
	resp, err := client.Get(url)
	joined <- struct{}{}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	v.reads.r = resp.Body
	var src io.Reader = v.reads
	if v.leave > 0 {
		src = io.LimitReader(src, v.leave)
	}
	var body bytes.Buffer
	if _, err := io.Copy(&body, src); err != nil {
		return err
	}
	err = check.LiveBody(header, bytes.NewReader(body.Bytes()))
	if err != nil && !(v.leave > 0 && errors.Is(err, io.ErrUnexpectedEOF)) {
		return err
	}
	r := asf.NewReader(&body)
	if _, err := r.ReadHeader(); err != nil {
		return err
	}
	for {
		p, err := r.ReadPacket()
		if err != nil {
			return nil // the invariant check above judged how it ended
		}
		if err := checkPattern(p); err != nil {
			return err
		}
	}
}

// TestLiveReuseUnderChurn stresses the channel's buffer reuse: one
// publisher, and viewers over netsim.MemNet that join late, stall at
// random and leave early, all drawn from a seed. Every body keeps
// check.LiveBody's invariant and every packet in it carries the payload
// published under its sequence number, while the channel hands buffers
// back to its slab again and again. A buffer handed back while a write
// still reads it shows as a checksum or payload mismatch; under asfpoison
// it is overwritten with 0xDB before it is carved again.
func TestLiveReuseUnderChurn(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { churn(t, seed) })
	}
}

func churn(t *testing.T, seed int64) {
	const (
		packets = 12000
		gop     = 20
		viewers = 4
	)
	rng := rand.New(rand.NewSource(seed))
	srv := NewServer(nil)
	ch, err := srv.CreateChannel("churn", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	client := serveOnMem(t, srv.Handler()).Client()
	url := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamLive, "churn"))

	plan := make([]churnViewer, viewers)
	for i := range plan {
		plan[i] = churnViewer{join: rng.Intn(packets / 2), reads: &stallReader{
			rng:   rand.New(rand.NewSource(rng.Int63())),
			every: 4 + rng.Intn(16),
			max:   time.Duration(4+rng.Intn(12)) * time.Millisecond,
		}}
		if i%2 == 1 {
			plan[i].leave = 20_000 + rng.Int63n(1_000_000)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, viewers)
	joined := make(chan struct{})
	payload := make([]byte, 1000)
	for seq := 0; seq < packets; seq++ {
		for i, v := range plan {
			if v.join == seq {
				wg.Add(1)
				go func(i int, v churnViewer) {
					defer wg.Done()
					errs[i] = v.watch(client, url, ch.wireHeader, joined)
				}(i, v)
				<-joined
			}
		}
		for i := range payload {
			payload[i] = patternByte(uint32(seq))
		}
		p := videoPacket(time.Duration(seq)*40*time.Millisecond, seq%gop == 0, 0)
		p.Seq, p.Payload = uint32(seq), payload
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
		if seq%32 == 0 {
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}
	ch.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("viewer %d (%+v): %v", i, plan[i], err)
		}
	}
	_, _, reused := srv.pool.Stats()
	if reused == 0 {
		t.Fatal("the channel never reused a slab buffer")
	}
	t.Logf("%d buffers reused; viewers skipped %d packets in %d resyncs", reused, ch.Dropped(), ch.Resyncs())
}
