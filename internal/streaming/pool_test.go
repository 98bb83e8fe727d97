package streaming

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/testutil"
)

// publishPattern publishes n video packets of 1000 bytes from seq on, a
// keyframe every 20, each payload filled with its sequence number's
// pattern byte.
func publishPattern(t *testing.T, ch *Channel, seq, n int) {
	t.Helper()
	payload := make([]byte, 1000)
	for end := seq + n; seq < end; seq++ {
		for i := range payload {
			payload[i] = patternByte(uint32(seq))
		}
		p := videoPacket(time.Duration(seq)*40*time.Millisecond, seq%20 == 0, 0)
		p.Seq, p.Payload = uint32(seq), payload
		if err := ch.Publish(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoolLedgerExact checks that every slab buffer the server's pool
// hands out is given back or forgotten exactly once: after each way an
// owner lets go of its buffers, nothing is held and nothing stays listed.
func TestPoolLedgerExact(t *testing.T) {
	data := encodeDSLAsset(t)
	register := func(t *testing.T, s *Server, name string, data []byte) (*Asset, error) {
		return s.RegisterAsset(name, asf.NewReader(bytes.NewReader(data)))
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T, s *Server)
	}{
		{"removed while a body reads", func(t *testing.T, s *Server) {
			for _, name := range []string{"lec", "other"} {
				if _, err := register(t, s, name, data); err != nil {
					t.Fatal(err)
				}
			}
			resp, err := serveOnMem(t, s.Handler()).Client().Get(
				"http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec")))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			head := make([]byte, 4096)
			if _, err := io.ReadFull(resp.Body, head); err != nil {
				t.Fatal(err)
			}
			s.RemoveAsset("lec")
			s.RemoveAsset("other")
			if held, _ := s.ledger(); held == 0 {
				t.Fatal("the lecture a body reads was given back on its removal")
			}
			want, err := check.StoredBody(data, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := check.Body(io.MultiReader(bytes.NewReader(head), resp.Body), want); err != nil {
				t.Fatal(err)
			}
		}},
		{"a parse fails partway", func(t *testing.T, s *Server) {
			if _, err := register(t, s, "lec", data[:len(data)/2]); err == nil {
				t.Fatal("half a container registered")
			}
		}},
		{"a registration loses a duplicate race", func(t *testing.T, s *Server) {
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(err *error) {
					defer wg.Done()
					_, *err = register(t, s, "lec", data)
				}(&errs[i])
			}
			wg.Wait()
			if lost := errors.Join(errs...); !errors.Is(lost, ErrDuplicate) || errs[0] != nil && errs[1] != nil {
				t.Fatalf("two registrations of one name: %v, %v; want one ErrDuplicate", errs[0], errs[1])
			}
			s.RemoveAsset("lec")
		}},
		{"a channel closes and its last viewer leaves", func(t *testing.T, s *Server) {
			ch, err := s.CreateChannel("live", liveHeader(t))
			if err != nil {
				t.Fatal(err)
			}
			client := serveOnMem(t, s.Handler()).Client()
			url := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamLive, "live"))
			joined := make(chan struct{})
			errs := make(chan error, 2)
			for _, leave := range []int64{0, 50_000} {
				v := churnViewer{leave: leave, reads: &stallReader{rng: rand.New(rand.NewSource(leave)), every: 8, max: time.Millisecond}}
				go func() { errs <- v.watch(client, url, ch.wireHeader, joined) }()
				<-joined
			}
			publishPattern(t, ch, 0, 600)
			ch.Close()
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"a channel that had a Subscriber closes", func(t *testing.T, s *Server) {
			ch, err := s.CreateChannel("live", liveHeader(t))
			if err != nil {
				t.Fatal(err)
			}
			sub, err := ch.Subscribe()
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			got := make(chan int)
			go func() {
				n := 0
				for range sub.C {
					n++
				}
				got <- n
			}()
			publishPattern(t, ch, 0, 600)
			ch.Close()
			if n := <-got; n != 600 {
				t.Fatalf("the subscriber received %d packets, want 600", n)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewServer(nil)
			s.Pacing = false
			c.run(t, s)
			testutil.WaitUntil(t, 5*time.Second, func() bool { held, free := s.ledger(); return held == 0 && free == 0 },
				"the pool still holds or lists buffers")
		})
	}
}

// TestPoolSharedAcrossOwners runs a live channel and churning stored
// registrations on one server: the channel publishes to stalling viewers
// while, every 300 packets, a lecture is registered, read and the
// oldest of four removed. Both take their slab buffers from the server's
// pool and give them back to it, so each carves buffers the other gave
// back. Every stored body must still equal its container's
// (check.StoredBody) and every live body keep check.LiveBody's invariant
// with each packet's payload intact: a buffer handed to one owner while
// the other still reads it shows as the wrong bytes, and under asfpoison
// as 0xDB.
func TestPoolSharedAcrossOwners(t *testing.T) {
	const keep, packets, every = 3, 4000, 300
	data := encodeDSLAsset(t)
	want, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(nil)
	s.Pacing = false
	client := serveOnMem(t, s.Handler()).Client()
	ch, err := s.CreateChannel("live", liveHeader(t))
	if err != nil {
		t.Fatal(err)
	}
	// tick orders the carves: when the channel took each buffer, and
	// when each registration began and ended.
	var tick atomic.Int64
	var liveMu sync.Mutex
	live := map[*byte][]int64{}
	renew := ch.slab.Renew
	ch.slab.Renew = func(left []byte) []byte {
		buf := renew(left)
		if buf != nil {
			liveMu.Lock()
			live[&buf[:1][0]] = append(live[&buf[:1][0]], tick.Add(1))
			liveMu.Unlock()
		}
		return buf
	}
	type registration struct {
		a      *Asset
		t0, t1 int64
	}
	var stored []registration

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	liveURL := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamLive, "live"))
	joined := make(chan struct{})
	for i := 0; i < 2; i++ {
		v := churnViewer{reads: &stallReader{rng: rand.New(rand.NewSource(int64(i))), every: 8, max: 2 * time.Millisecond}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- v.watch(client, liveURL, ch.wireHeader, joined)
		}()
		<-joined
	}
	name := func(k int) string { return fmt.Sprint("lec-", k) }
	for seq := 0; seq < packets; seq += every {
		publishPattern(t, ch, seq, every)
		k := len(stored)
		t0 := tick.Add(1)
		a, err := s.RegisterAsset(name(k), asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, registration{a, t0, tick.Add(1)})
		// The body holds the lecture from its response on, so it is read
		// while its removal and the registrations after it go on.
		resp, err := client.Get("http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamVOD, name(k))))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name(k), resp.StatusCode)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer resp.Body.Close()
			if err := check.Body(resp.Body, want); err != nil {
				errs <- fmt.Errorf("%s: %w", name(k), err)
			}
		}()
		if k >= keep {
			s.RemoveAsset(name(k - keep))
		}
	}
	ch.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	// A buffer a registration carved and the channel took after it ended
	// went from a stored asset to the channel; one the channel took
	// before a registration began went the other way.
	var toLive, toStored int
	for _, r := range stored {
		for _, buf := range r.a.bufs {
			for _, at := range live[&buf[:1][0]] {
				switch {
				case at > r.t1:
					toLive++
				case at < r.t0:
					toStored++
				}
			}
		}
	}
	if toLive == 0 || toStored == 0 {
		t.Fatalf("%d buffers went from stored assets to the channel, %d the other way; want both", toLive, toStored)
	}
	for k := max(len(stored)-keep, 0); k < len(stored); k++ {
		s.RemoveAsset(name(k))
	}
	// A body's response can end before its handler lets go of the lecture.
	testutil.WaitUntil(t, 5*time.Second, func() bool { held, free := s.ledger(); return held == 0 && free == 0 },
		"with the channel ended and no lecture registered, the pool still holds or lists buffers")
	t.Logf("%d buffers from stored assets to the channel, %d the other way; %d reused in all", toLive, toStored, s.reused())
}
