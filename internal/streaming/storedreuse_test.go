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

// ledger is the server pool's buffers held out and listed free.
func (s *Server) ledger() (held, free int) {
	held, free, _ = s.pool.Stats()
	return held, free
}

// reused is how many listed buffers the server's pool handed out again.
func (s *Server) reused() int64 {
	_, _, n := s.pool.Stats()
	return n
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
// byte, and the removed lecture's buffers go back to the pool only once
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
	if held, free := s.ledger(); held != len(first.bufs) || free != 0 {
		t.Fatalf("with a body reading the removed lecture: %d buffers held, %d free; want its %d and none", held, free, len(first.bufs))
	}
	second := register("lec-2")
	if n := s.reused(); n != 0 || sharesBuffer(first, second) {
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
	testutil.WaitUntil(t, 5*time.Second, func() bool { _, free := s.ledger(); return free == bufs },
		"the removed lecture's buffers were never listed after its body ended")
	third := register("lec-3")
	if n := s.reused(); n != int64(bufs) || !sharesBuffer(first, third) || sharesBuffer(second, third) {
		t.Fatalf("the lecture after the body reused %d buffers, want the removed lecture's %d", n, bufs)
	}
}

// TestChurnRecyclesWholeMirrors is an edge's miss path once its cache is
// full: lecture k is registered while the four before it stay and
// lecture k−5 has just been removed. The four held keep room for a whole
// lecture on the pool's list, so after the first round every 64 KB buffer
// a parse carves comes off it, however many there are
// (lod_slab_buffers_reused_total rises by each asset's count), and the
// list never holds more than twice what the lectures do. Once every
// lecture is removed nothing is held, and nothing stays listed.
func TestChurnRecyclesWholeMirrors(t *testing.T) {
	const keep, lectures = 4, 12
	data := encodeDSLLecture(t, 40*time.Second)
	s := NewServer(nil)
	name := func(k int) string { return fmt.Sprint("lec-", k) }
	reused := func() int {
		return int(s.Metrics().Snapshot().Get("lod_slab_buffers_reused_total"))
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
			t.Fatalf("registration %d carved %d of its %d buffers off the pool's list, want all", k, got, len(a.bufs))
		}
		if held, free := s.ledger(); held != min(k+1, keep+1)*len(a.bufs) || free > 2*held {
			t.Fatalf("after registration %d: %d buffers held, %d free", k, held, free)
		}
	}

	for k := lectures - keep - 1; k < lectures; k++ {
		s.RemoveAsset(name(k))
		if held, free := s.ledger(); free > 2*held {
			t.Fatalf("after removing %s: %d buffers free, more than twice the %d held", name(k), free, held)
		}
	}
	if held, free := s.ledger(); held != 0 || free != 0 {
		t.Fatalf("with no lecture registered: %d buffers held, %d free; want none of either", held, free)
	}
}

// TestParseInFlightIsHeld registers a lecture whose container arrives in
// two parts, and stops it after the first part: its first packet is
// carved, so the parse holds one buffer from the pool before it lands.
// Removing a registered lecture then lists only twice as many of its
// buffers as that leaves held, two, and the parse, once the rest arrives,
// carves them.
func TestParseInFlightIsHeld(t *testing.T) {
	data := encodeDSLAsset(t)
	s := NewServer(nil)
	first, err := s.RegisterAsset("first", asf.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	// cut is the end of the first packet carved from a slab buffer: the
	// first whose image is under a quarter of one.
	r := asf.NewReader(bytes.NewReader(data))
	if _, err := r.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	var images []int
	for {
		sp, err := r.ReadShared()
		if err != nil {
			break
		}
		images = append(images, len(sp.Wire()))
	}
	cut := len(data)
	for _, n := range images {
		cut -= n
	}
	for _, n := range images {
		cut += n
		if n < asf.SlabSize/4 {
			break
		}
	}

	pr, pw := io.Pipe()
	landed := make(chan *Asset, 1)
	go func() {
		a, err := s.RegisterAsset("second", asf.NewReader(pr))
		if err != nil {
			t.Error(err)
		}
		landed <- a
	}()
	if _, err := pw.Write(data[:cut]); err != nil {
		t.Fatal(err)
	}
	bufs := len(first.bufs)
	testutil.WaitUntil(t, 5*time.Second, func() bool { held, _ := s.ledger(); return held == bufs+1 },
		"the parse in flight never counted its first buffer as held")
	s.RemoveAsset("first")
	if held, free := s.ledger(); held != 1 || free != 2 {
		t.Fatalf("after the removal: %d buffers held, %d free; want the parse's 1 and 2", held, free)
	}
	if _, err := pw.Write(data[cut:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	second := <-landed
	if second == nil {
		t.FailNow()
	}
	if held, free := s.ledger(); held != len(second.bufs) || free != 0 || s.reused() != 2 || !sharesBuffer(first, second) {
		t.Fatalf("after the parse landed: %d buffers held, %d free, %d reused; want its %d, none and the two listed",
			held, free, s.reused(), len(second.bufs))
	}
}
