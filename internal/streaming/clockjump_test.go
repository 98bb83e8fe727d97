package streaming

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// jumpClock is a virtual clock that moves an hour on at the first wait
// made on it, before the wait is registered: the clock jumping between
// the sender's reading and the wait for the send time it read. onJump,
// if set, is called just before the jump.
type jumpClock struct {
	*vclock.Virtual
	once   sync.Once
	onJump func()
}

func (c *jumpClock) jump() {
	c.once.Do(func() {
		if c.onJump != nil {
			c.onJump()
		}
		c.Advance(time.Hour)
	})
}

func (c *jumpClock) SleepUntil(ctx context.Context, t time.Time) bool {
	c.jump()
	return c.Virtual.SleepUntil(ctx, t)
}

func (c *jumpClock) AfterFunc(t time.Time, f func()) vclock.Timer {
	c.jump()
	return c.Virtual.AfterFunc(t, f)
}

// TestClockJumpStrandsNoSender: the server's clock jumps an hour after
// a paced sender's reading, before its first wait. Every send time of
// the five-second lecture is then past, so a paced VOD session and a
// PublishPaced broadcast each send the whole lecture with nobody
// advancing the clock, and the viewer gets the body it is owed.
func TestClockJumpStrandsNoSender(t *testing.T) {
	stored := encodeTitledAsset(t, "clock jump", 5*time.Second)
	h, packets := liveLecture(t, 5*time.Second, 2)
	for _, tc := range []struct {
		name string
		kind proto.StreamKind
	}{
		{"paced VOD session", proto.StreamVOD},
		{"PublishPaced broadcast", proto.StreamLive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &jumpClock{Virtual: vclock.NewVirtual()}
			srv := NewServer(clk)
			var ch *Channel
			var err error
			if tc.kind == proto.StreamLive {
				ch, err = srv.CreateChannel("lec", h)
			} else {
				_, err = srv.RegisterAsset("lec", asf.NewReader(bytes.NewReader(stored)))
			}
			if err != nil {
				t.Fatal(err)
			}
			client := serveOnMem(t, srv.Handler()).Client()
			resp, err := client.Get("http://origin.lod" + proto.Versioned(proto.StreamPath(tc.kind, "lec")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ch != nil {
				testutil.WaitUntil(t, 5*time.Second, func() bool { return ch.ClientCount() == 1 }, "the viewer never attached")
				go func() {
					_ = ch.PublishPaced(context.Background(), clk, packets)
					ch.Close()
				}()
			}

			read := make(chan []byte, 1)
			go func() {
				body, _ := io.ReadAll(resp.Body)
				read <- body
			}()
			var body []byte
			select {
			case body = <-read:
			case <-time.After(10 * time.Second):
				next, _ := clk.NextDeadline()
				t.Fatalf("the sender is stranded: the clock reads +%v and its next deadline is +%v",
					clk.Now().Sub(vclock.Epoch), next.Sub(vclock.Epoch))
			}
			if got := clk.Now().Sub(vclock.Epoch); got != time.Hour {
				t.Fatalf("the clock reads +%v, want +1h: the sender never waited", got)
			}
			if ch == nil {
				err = check.Body(bytes.NewReader(body), storedBody(t, stored, 0))
			} else if err = check.LiveBody(ch.wireHeader, bytes.NewReader(body)); err == nil && ch.Published() != int64(len(packets)) {
				t.Fatalf("published %d of %d packets", ch.Published(), len(packets))
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
