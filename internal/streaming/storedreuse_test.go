package streaming

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/check"
	"repro/internal/proto"
	"repro/internal/testutil"
)

// freeBuffers is the length of the server's free list.
func (s *Server) freeBuffers() int {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return len(s.free)
}

// sharesBuffer reports whether a and b were carved from a common slab
// buffer.
func sharesBuffer(a, b *Asset) bool {
	for _, x := range a.bufs {
		for _, y := range b.bufs {
			if &x[:1][0] == &y[:1][0] {
				return true
			}
		}
	}
	return false
}

// TestRemovedAssetFinishesItsBody removes a lecture while a body written
// from it is held mid-stream by a reader that stopped, and registers a
// lecture of the same size at once. The body holds a reference, so the
// new lecture is carved from fresh buffers, the body finishes byte for
// byte, and the removed lecture's buffers reach the free list only once
// the body has ended; the registration after that carves them.
func TestRemovedAssetFinishesItsBody(t *testing.T) {
	data := encodeDSLAsset(t)
	s := NewServer(nil)
	s.Pacing = false
	register := func(name string) *Asset {
		t.Helper()
		a, err := s.RegisterAsset(name, asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	first := register("lec")
	url := "http://origin.lod" + proto.Versioned(proto.StreamPath(proto.StreamVOD, "lec"))
	resp, err := serveOnMem(t, s.Handler()).Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	// A MemNet connection buffers nothing: with the header and a first
	// stretch read, the handler holds the asset and waits in a write.
	head := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}

	if !s.RemoveAsset("lec") {
		t.Fatal("lec was not registered")
	}
	if n := s.freeBuffers(); n != 0 {
		t.Fatalf("%d buffers of the removed lecture went on the free list while a body reads them", n)
	}
	second := register("lec-2")
	if n := s.inst.reused.Value(); n != 0 || sharesBuffer(first, second) {
		t.Fatalf("the next lecture reused %d buffers, shared with the one a body reads: %t", n, sharesBuffer(first, second))
	}

	want, err := check.StoredBody(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Body(io.MultiReader(bytes.NewReader(head), resp.Body), want); err != nil {
		t.Fatal(err)
	}
	bufs := len(first.bufs)
	testutil.WaitUntil(t, 5*time.Second, func() bool { return s.freeBuffers() == bufs },
		"the removed lecture's buffers never reached the free list after its body ended")
	third := register("lec-3")
	if n := s.inst.reused.Value(); n != int64(bufs) || !sharesBuffer(first, third) || sharesBuffer(second, third) {
		t.Fatalf("the lecture after the body reused %d buffers, want the removed lecture's %d", n, bufs)
	}
}

// freeState is the server's free-list ledger: free buffers, buffers
// held by parsed assets, and the most ever held.
func (s *Server) freeState() (free, held, peak int) {
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	return len(s.free), s.held, s.peak
}

// TestChurnRecyclesWholeMirrors is an edge's miss path once its cache is
// full: lecture k is registered while the four before it stay and
// lecture k−5 has just been removed. After the first round every 64 KB
// buffer a parse carves comes off the free list, however many there are
// (lod_stored_buffers_reused_total rises by each asset's count), and
// buffers held and free together never pass the most ever held.
func TestChurnRecyclesWholeMirrors(t *testing.T) {
	const keep, lectures = 4, 12
	data := encodeDSLLecture(t, 40*time.Second)
	s := NewServer(nil)
	name := func(k int) string { return fmt.Sprint("lec-", k) }
	reused := func() int {
		return int(s.Metrics().Snapshot().Get("lod_stored_buffers_reused_total"))
	}
	for k := 0; k < lectures; k++ {
		if k > keep && !s.RemoveAsset(name(k-keep-1)) {
			t.Fatalf("%s was not registered", name(k-keep-1))
		}
		before := reused()
		a, err := s.RegisterAsset(name(k), asf.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		// A lecture of at most 16 buffers would fit a fixed list of 16
		// as well, and the rounds would not tell the two rules apart.
		if len(a.bufs) <= 16 {
			t.Fatalf("the lecture spans %d slab buffers; want more than 16", len(a.bufs))
		}
		if got := reused() - before; k > keep && got != len(a.bufs) {
			t.Fatalf("registration %d carved %d of its %d buffers off the free list, want all", k, got, len(a.bufs))
		}
		if free, held, peak := s.freeState(); held+free > peak {
			t.Fatalf("after registration %d: %d buffers held and %d free pass the most ever held, %d", k, held, free, peak)
		}
	}

	// Removing every lecture lists their buffers up to the most held, and
	// no further.
	for k := lectures - keep - 1; k < lectures; k++ {
		s.RemoveAsset(name(k))
		if free, held, peak := s.freeState(); held+free > peak {
			t.Fatalf("after removing %s: %d buffers held and %d free pass the most ever held, %d", name(k), held, free, peak)
		}
	}
	if free, held, peak := s.freeState(); held != 0 || free != peak {
		t.Fatalf("with no lecture registered: %d buffers held, %d free; want 0 and the most ever held, %d", held, free, peak)
	}
}

// gateReader serves data, then, at the first read that asks for more,
// closes waiting and blocks until resume is closed before it reports
// io.EOF. An asf.Reader reads no further than the object it parses, so
// by then every packet in data is carved.
type gateReader struct {
	data            []byte
	waiting, resume chan struct{}
	passed          bool
}

func (g *gateReader) Read(p []byte) (int, error) {
	if len(g.data) == 0 {
		if !g.passed {
			close(g.waiting)
			<-g.resume
			g.passed = true
		}
		return 0, io.EOF
	}
	n := copy(p, g.data)
	g.data = g.data[n:]
	return n, nil
}

// A parse in flight holds buffers the ledger does not count yet, so once
// it lands, held and free together can pass the most ever held, and the
// room a release computes goes below zero. Here a lecture parses into
// fresh buffers while the one before it is removed and listed whole; the
// parse then lands, a one-buffer lecture takes a listed buffer, and its
// removal finds no room: it lists nothing, and the next registration
// still carves listed buffers.
func TestReleaseWithoutRoomListsNothing(t *testing.T) {
	data := encodeDSLAsset(t)
	s := NewServer(nil)
	register := func(name string, r io.Reader) *Asset {
		t.Helper()
		a, err := s.RegisterAsset(name, asf.NewReader(r))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	first := register("first", bytes.NewReader(data))

	gate := &gateReader{data: data, waiting: make(chan struct{}), resume: make(chan struct{})}
	landed := make(chan *Asset)
	go func() {
		a, err := s.RegisterAsset("second", asf.NewReader(gate))
		if err != nil {
			t.Error(err)
		}
		landed <- a
	}()
	<-gate.waiting // every packet of the second lecture is carved
	s.RemoveAsset("first")
	if free := s.freeBuffers(); free != len(first.bufs) {
		t.Fatalf("the removed lecture listed %d of its %d buffers", free, len(first.bufs))
	}
	close(gate.resume)
	if second := <-landed; second == nil || sharesBuffer(first, second) {
		t.Fatal("the lecture parsed in flight did not land in buffers of its own")
	}

	small := register("small", bytes.NewReader(encodeTestAsset(t, time.Second)))
	if len(small.bufs) != 1 {
		t.Fatalf("the small lecture spans %d buffers, want 1", len(small.bufs))
	}
	free, held, peak := s.freeState()
	if room := peak - (held - 1) - free; room >= 0 {
		t.Fatalf("%d held, %d free, %d most held: the small lecture's release has room %d, want below zero", held, free, peak, room)
	}
	s.RemoveAsset("small")
	if got, _, _ := s.freeState(); got != free {
		t.Fatalf("a release without room listed %d buffers", got-free)
	}
	before := s.inst.reused.Value()
	register("third", bytes.NewReader(data))
	if got := s.inst.reused.Value() - before; got != int64(free) {
		t.Fatalf("the next registration carved %d listed buffers, want %d", got, free)
	}
}
